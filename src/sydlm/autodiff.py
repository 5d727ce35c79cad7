"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

Ops executed inside a ``with Tape():`` block are recorded in creation order
(a Wengert list); ``backward`` sweeps the list once in reverse, summing
adjoints into every parameter reached.  Outside a tape, ops just compute
values, which is the evaluation path.  The primitive set is closed: exactly
the operations the models in this package need, with exact analytic
adjoints (``take`` and ``embedding`` are ``getitem``s, ``causal_conv1d`` a
sum of shifted ``matmul``s), plus a finite-difference checking harness.

The sweep owns its adjoint buffers and writes into no other array.  A
tensor's first adjoint is kept as its consumer's ``bwd`` returned it, with
no copy: a ``bwd`` may hand one array, or views of it, to several parents
(``add``, ``reshape``, ``_unbroadcast``), so that array is never written.
The second adjoint is summed into a new array, which the sweep owns, and
later ones are added to it in place.  ``getitem``'s ``bwd`` returns its
``(key, dy)`` pair instead of a parent-sized array: a basic key's ``dy`` is
added into the parent's owned buffer at ``key``, so a slice's adjoint costs
the size of the slice; an index array's, whose positions may repeat, is
scattered whole into a new zero array (``np.add.at``) and summed as a dense
adjoint.  Once a node's output adjoint is handed to its ``bwd``, the sweep
writes to it no more.

A leaf weight's adjoint may arrive as factors.  ``matmul``'s 2-D ``bwd``
(without ``transpose_b``) returns the adjoint of a leaf weight with at least
``FLUSH_ROWS`` rows as ``_Factors``: the left rows ``a2`` and the right rows
``dy2`` whose product ``a2.T @ dy2`` it is; any other weight, a non-leaf or
a small one, gets its product.  The sweep appends the factors to a list per
leaf and forms the product of the stacked rows,
``concatenate(lefts).T @ concatenate(rights)``, as one GEMM: a recurrent
weight read once per step gets one tall product in place of T rank-B ones,
each summed into a buffer as large as the weight (Appleyard, Kočiský &
Blunsom 2016, arXiv 1604.01946).  The product, a new array the sweep owns,
is summed like any dense adjoint.  A list is flushed when it holds
``FLUSH_ROWS`` rows, which bounds the memory the held rows keep alive, and
at the end of the sweep.  A list of one factor flushes as
``left.T @ right``, exactly ``matmul``'s own product, so a weight that one
matmul reads gets the same bits; only a large weight read several times sums
in another order.  Holding ``a2`` and ``dy2`` is safe because nothing writes
either while the sweep runs: ``a2`` is forward data, and ``dy2`` is a view
of an adjoint already handed to a ``bwd``.

The tape keeps only what backward reads.  A tensor's ``tracked`` is its
key in the graph: None for an untracked tensor, the tensor itself for a
leaf (``requires_grad``), and otherwise the node that made it.  A node holds
its output's shape, its parents' keys and its ``bwd``, and no array, and
``backward`` keys its adjoints by node.  So a primitive's ``bwd`` must
capture every array it reads, because the tape holds nothing else, and no
array it does not read: an output array lives only while model code holds
its tensor or a ``bwd`` captured it.  ``sigmoid``, ``tanh``, ``relu``, ``softmax`` and ``div``
capture their own outputs, ``matmul`` its operands, and ``mul`` an operand
only when the other is tracked; ``tsum``, ``repeat_last`` and ``div``'s
numerator keep only a shape.  The sweep releases each node's ``bwd`` once
it has run it, or passed the node with no adjoint, so the arrays a closure
holds are freed as the sweep goes, and a swept tape holds no array.  A tape
is therefore swept once: sweeping it again raises RuntimeError.

A leaf's reference to itself is the graph's only cycle.  The tape holds its
nodes, a tensor points to its node, and a node points to its parents' keys
and its ``bwd``, never to a tensor a node made.  Leaves are parameters that
live as long as their model, and ``grad_check`` restores the key it found
(None for a plain tensor).  So reference counting frees a graph as soon as
its tape and its output tensors are dropped
(``test_dropped_graph_is_freed_without_the_cycle_collector``).  An open
tape therefore pauses the cyclic garbage collector, which would otherwise
keep re-walking the thousands of objects a step holds, and its close
restores the state it found.  Reference cycles that user code makes inside
a tape are collected after the tape closes.
"""

from __future__ import annotations

import gc
import math
import os
import struct
from typing import Callable, Optional, Sequence

import numpy as np

from .atomic import atomic_open


class ShapeError(ValueError):
    pass


class NumericError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Tape and tensors
# ---------------------------------------------------------------------------

_TAPE_STACK: list["Tape"] = []
_FLOAT64 = np.dtype(np.float64)


class _Factors:
    """A leaf weight's adjoint left unformed: ``left.T @ right``."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


# A factor list is flushed once it holds this many rows (7 steps at B20),
# enough for a tall GEMM.  Only a leaf weight with this many rows or more is
# factored, so the right rows a full list holds never take more memory than
# the weight-sized product a step would otherwise form.
FLUSH_ROWS = 140


class _Node:
    """One primitive application: its output's shape, its parents' keys
    (``Tensor.tracked``) and its ``bwd`` (None once swept).  It holds no
    array."""

    __slots__ = ("shape", "parents", "bwd")

    def __init__(self, shape, parents, bwd):
        self.shape = shape
        self.parents = parents
        self.bwd = bwd


class Tape:
    """Ordered record of primitive applications; parents always precede
    their consumers, so one reverse sweep visits every node exactly once.
    Only the tape refers to its nodes, so dropping it frees the graph.
    While a tape is open the cyclic garbage collector is paused; closing
    the tape restores the state it found."""

    __slots__ = ("nodes", "_gc_was_enabled")

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        self._gc_was_enabled = gc.isenabled()
        gc.disable()
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        if self._gc_was_enabled:
            gc.enable()
        return False

    def __len__(self) -> int:
        return len(self.nodes)


def active_tape() -> Optional[Tape]:
    """The tape ops are being recorded on, or None on the evaluation path."""
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tensor:
    """An array and its key in the graph, ``tracked``: None for an untracked
    tensor, the tensor itself for a leaf, and otherwise the node that made
    it.  A leaf's reference to itself is the graph's only cycle."""

    __slots__ = ("data", "tracked", "grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        if type(data) is not np.ndarray or data.dtype is not _FLOAT64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.tracked = self if requires_grad else None
        self.grad: Optional[np.ndarray] = None
        self.name = name

    @property
    def requires_grad(self) -> bool:
        return self.tracked is self

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self) -> str:
        tag = self.name or ("param" if self.requires_grad else "tensor")
        return "Tensor<%s shape=%s>" % (tag, self.shape)

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __getitem__(self, key):
        return getitem(self, key)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _apply(out_data: np.ndarray, keys: Sequence, bwd: Callable) -> Tensor:
    """Wrap out_data; on a tape, record a node if any parent key is tracked.
    keys are the parents' ``tracked`` values, in bwd's order."""
    out = Tensor(out_data)
    if _TAPE_STACK:
        for k in keys:
            if k is not None:
                node = out.tracked = _Node(out_data.shape, keys, bwd)
                _TAPE_STACK[-1].nodes.append(node)
                break
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(param) for every requires_grad leaf reached.

    The adjoint map is keyed by ``tracked``: a node for a tensor a node
    made, the tensor itself for a leaf.  Adjoints of a key used several
    times sum.  Sweeping a node takes its adjoint out of the map, so the
    keys left in it are the leaves; each adjoint is added to its leaf's
    ``.grad``.  Sums follow the ownership rule in the module docstring, and
    leaves' factor lists are flushed as it says.  Each node's ``bwd`` is
    released once swept, so a tape can be swept once; a second sweep raises
    RuntimeError.
    """
    tape = active_tape()
    if tape is None:
        raise RuntimeError("backward called with no active tape")
    if loss.data.size != 1:
        raise ShapeError("backward: loss must be scalar, got shape %s" % (loss.shape,))
    grads: dict = {loss.tracked: np.ones_like(loss.data)}
    owned: set = set()
    factors: dict = {}  # leaf -> [lefts, rights, row count]
    pop, get, ndarray = grads.pop, grads.get, np.ndarray
    for node in reversed(tape.nodes):
        bwd, node.bwd = node.bwd, None  # frees what the closure holds once swept
        if bwd is None:
            raise RuntimeError("backward: this tape was already swept")
        dy = pop(node, None)
        if dy is None:
            continue
        owned.discard(node)
        for parent, dp in zip(node.parents, bwd(dy)):
            if dp is None or parent is None:
                continue
            if type(dp) is not ndarray:  # factors, a getitem's (key, dy), or a numpy scalar
                if type(dp) is _Factors:  # a leaf weight's
                    f = factors.get(parent)
                    if f is None:
                        f = factors[parent] = [[], [], 0]
                    f[0].append(dp.left)
                    f[1].append(dp.right)
                    f[2] += dp.left.shape[0]
                    if f[2] >= FLUSH_ROWS:
                        del factors[parent]
                        _flush(grads, owned, parent, f)
                    continue
                if type(dp) is tuple:
                    key, d = dp
                    if _basic(key):
                        acc = get(parent)
                        if parent not in owned:
                            acc = np.zeros(parent.shape) if acc is None else np.array(acc)
                            grads[parent] = acc
                            owned.add(parent)
                        acc[key] += d
                        continue
                    dp = np.zeros(parent.shape)  # an index array: scatter, then sum densely
                    np.add.at(dp, key, d)
            acc = get(parent)
            if acc is None:
                grads[parent] = dp
            elif parent in owned:
                acc += dp
            else:
                grads[parent] = np.asarray(acc + dp)  # a 0-d sum is a numpy scalar
                owned.add(parent)
    for key, f in factors.items():
        _flush(grads, owned, key, f)
    for key, g in grads.items():
        if type(key) is not Tensor:
            continue
        g = np.asarray(g, dtype=np.float64)
        if g.shape != key.data.shape:
            raise ShapeError("gradient shape %s != tensor shape %s" % (g.shape, key.data.shape))
        key.grad = g if key.grad is None else key.grad + g


def _flush(grads: dict, owned: set, key, f: list) -> None:
    """Sum the product of key's factor list into its adjoint."""
    p = _stacked_rows(f)  # a new array, so the sweep owns it
    acc = grads.get(key)
    if acc is None:
        grads[key] = p
    elif key in owned:
        acc += p
    else:
        p += acc  # the same bits as acc + p
        grads[key] = p
    owned.add(key)


def _stacked_rows(f: list) -> np.ndarray:
    """The product a factor list [lefts, rights, rows] stands for, as one
    GEMM over the stacked rows.  One factor gives matmul's own product."""
    lefts, rights, _ = f
    if len(lefts) == 1:
        return lefts[0].T @ rights[0]
    return np.concatenate(lefts).T @ np.concatenate(rights)


def _basic(key) -> bool:
    """True for a basic index (ints, slices, None, Ellipsis): the positions
    it selects are distinct."""
    for k in key if type(key) is tuple else (key,):
        if not (k is None or k is Ellipsis or isinstance(k, (int, np.integer, slice))):
            return False
    return True


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _broadcasting(name: str, op, a: Tensor, b: Tensor) -> np.ndarray:
    try:
        return op(a.data, b.data)
    except ValueError:
        raise ShapeError("%s: shapes %s and %s do not broadcast" % (name, a.shape, b.shape))


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.data.shape, b.data.shape
    ta, tb = a.tracked, b.tracked
    return _apply(_broadcasting("add", np.add, a, b), (ta, tb),
                  lambda dy: (_unbroadcast(dy, sa) if ta else None,
                              _unbroadcast(dy, sb) if tb else None))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.data.shape, b.data.shape
    ta, tb = a.tracked, b.tracked
    return _apply(_broadcasting("sub", np.subtract, a, b), (ta, tb),
                  lambda dy: (_unbroadcast(dy, sa) if ta else None,
                              _unbroadcast(-dy, sb) if tb else None))


def neg(a) -> Tensor:
    """-a, as a * -1.0: the same bits, and mul's adjoint."""
    return mul(a, -1.0)


def mul(a, b) -> Tensor:
    """a * b.  bwd keeps an operand's values only while the other operand
    is tracked, since only the other's adjoint reads them."""
    a, b = as_tensor(a), as_tensor(b)
    ta, tb = a.tracked, b.tracked
    sa, sb = a.data.shape, b.data.shape
    ad = a.data if tb else None  # read by b's adjoint only
    bd = b.data if ta else None
    return _apply(_broadcasting("mul", np.multiply, a, b), (ta, tb),
                  lambda dy: (_unbroadcast(dy * bd, sa) if ta else None,
                              _unbroadcast(dy * ad, sb) if tb else None))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, bd = a.data.shape, b.data
    ta, tb = a.tracked, b.tracked
    out = _broadcasting("div", np.divide, a, b)
    return _apply(out, (ta, tb),
                  lambda dy: (_unbroadcast(dy / bd, sa) if ta else None,
                              _unbroadcast(-dy * out / bd, bd.shape) if tb else None))


def matmul(a, b, transpose_b: bool = False) -> Tensor:
    """a (..., m) @ b (m, n); with transpose_b, b is (n, m).

    b may also be a stack of matrices (..., m, n): then a is (..., k, m) and
    the leading axes of a and b broadcast as in numpy, so a 2-D a is used
    against every matrix of the stack.  Each adjoint is summed back to its
    operand's shape over the axes it was broadcast along.  Without
    transpose_b, the adjoint of a 2-D leaf b with at least FLUSH_ROWS rows
    goes to the sweep as factors (module docstring)."""
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    stacked = bd.ndim > 2
    if bd.ndim < 2 or ad.ndim < (2 if stacked else 1):
        raise ShapeError("matmul: expects (..., m) @ 2-D or (..., k, m) @ (..., m, n), got %s @ %s"
                         % (a.shape, b.shape))
    bt = np.swapaxes(bd, -1, -2)
    m = bd.shape[-1] if transpose_b else bd.shape[-2]
    if ad.shape[-1] != m:
        raise ShapeError("matmul: inner dims differ, %s @ %s (transpose_b=%s)"
                         % (a.shape, b.shape, transpose_b))
    try:
        out = ad @ (bt if transpose_b else bd)
    except ValueError:
        raise ShapeError("matmul: stacked shapes %s and %s do not broadcast" % (a.shape, b.shape))
    factored = b.tracked is b and bd.shape[0] >= FLUSH_ROWS

    def bwd(dy):
        if stacked:
            da = _stacked_product(dy, bd if transpose_b else bt)
            db = (_stacked_product(np.swapaxes(dy, -1, -2), ad) if transpose_b
                  else _stacked_product(np.swapaxes(ad, -1, -2), dy))
            return _unbroadcast(da, ad.shape), _unbroadcast(db, bd.shape)
        da = dy @ (bd if transpose_b else bt)
        a2 = ad.reshape(-1, ad.shape[-1])
        dy2 = dy.reshape(-1, dy.shape[-1])
        if transpose_b:
            return da, dy2.T @ a2
        if factored:
            return da, _Factors(a2, dy2)  # the sweep forms a2.T @ dy2
        return da, a2.T @ dy2

    return _apply(out, (a.tracked, b.tracked), bwd)


def _stacked_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x (..., p, k) @ y (..., k, q).  With k = 1 every entry is a single
    product, so a broadcast multiply gives the same values, faster."""
    return x * y if x.shape[-1] == 1 else x @ y


def concat(tensors: Sequence, axis: int = 0, out: Optional[np.ndarray] = None) -> Tensor:
    """With out (numpy's, float64), the result's data is out.  A piece may
    lie in out at its own place already, and is rewritten with its own
    values; out must not be written while the result is live (see getitem)."""
    ts = [as_tensor(t) for t in tensors]
    datas = [t.data for t in ts]
    try:
        out = np.concatenate(datas, axis=axis, out=out)
    except ValueError:
        raise ShapeError("concat: incompatible shapes %s along axis %d%s" % (
            [t.shape for t in ts], axis, "" if out is None else " into out %s" % (out.shape,)))
    lead = (slice(None),) * (axis % out.ndim)
    ends = np.cumsum([d.shape[axis] for d in datas]).tolist()
    keys = [lead + (slice(end - d.shape[axis], end),) for d, end in zip(datas, ends)]

    def bwd(dy):
        return tuple(dy[key] for key in keys)

    return _apply(out, [t.tracked for t in ts], bwd)


def getitem(a, key) -> Tensor:
    """a[key]: a view of a's data for a basic key, a copy for an index-array
    key.  The view is safe because nothing writes a tensor's data in place
    while a graph may read it: the SGD step runs after the step's tape is
    dropped, and grad_check perturbs x only after its taped pass."""
    a = as_tensor(a)
    out = a.data[key]

    def bwd(dy):
        return ((key, dy),)  # backward adds dy into the parent's adjoint at key

    return _apply(out, (a.tracked,), bwd)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape
    return _apply(a.data.reshape(shape), (a.tracked,), lambda dy: (dy.reshape(old),))


def broadcast_to(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape
    try:
        out = np.broadcast_to(a.data, shape).copy()
    except ValueError:
        raise ShapeError("broadcast_to: cannot broadcast %s to %s" % (a.shape, shape))
    return _apply(out, (a.tracked,), lambda dy: (_unbroadcast(dy, old),))


def repeat_last(a, k: int) -> Tensor:
    """Repeat each entry of the last axis k times consecutively."""
    a = as_tensor(a)
    old = a.data.shape
    out = np.repeat(a.data, k, axis=-1)

    def bwd(dy):
        return (dy.reshape(old + (k,)).sum(axis=-1),)

    return _apply(out, (a.tracked,), bwd)


def take(a, indices) -> Tensor:
    """Gather rows of a along axis 0: an index-array getitem."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise ShapeError("take: index out of range for axis of length %d" % a.data.shape[0])
    return getitem(a, idx)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))
    return _apply(out, (a.tracked,), lambda dy: (dy * out * (1.0 - out),))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _apply(out, (a.tracked,), lambda dy: (dy * (1.0 - out * out),))


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)
    return _apply(out, (a.tracked,), lambda dy: (dy * (out > 0.0),))  # out > 0 exactly where a > 0


def hardtanh(a) -> Tensor:
    """Clamp to [-1, 1]; subgradient at the kinks is 0."""
    a = as_tensor(a)
    ad = a.data
    out = np.clip(ad, -1.0, 1.0)
    return _apply(out, (a.tracked,), lambda dy: (dy * ((ad > -1.0) & (ad < 1.0)),))


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(dy):
        inner = (dy * out).sum(axis=-1, keepdims=True)
        return ((dy - inner) * out,)

    return _apply(out, (a.tracked,), bwd)


def cumsum(a) -> Tensor:
    """Cumulative sum over the last axis."""
    a = as_tensor(a)
    out = np.cumsum(a.data, axis=-1)

    def bwd(dy):
        return (dy[..., ::-1].cumsum(axis=-1)[..., ::-1],)

    return _apply(out, (a.tracked,), bwd)


def cumax(a) -> Tensor:
    """cumsum(softmax(x)): a monotone soft step in (0, 1] ending at 1."""
    return cumsum(softmax(a))


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(dy):
        d = dy if axis is None or keepdims else np.expand_dims(dy, axis)
        return (np.broadcast_to(d, old).copy(),)

    return _apply(out, (a.tracked,), bwd)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    """np.mean is a sum and then a true divide by the count."""
    a = as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return div(tsum(a, axis, keepdims), count)


def embedding(weight, ids) -> Tensor:
    """Look up rows of weight (V, E) by an integer id array (a getitem)."""
    weight = as_tensor(weight)
    idx = np.asarray(ids, dtype=np.int64)
    v = weight.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= v):
        raise ShapeError("embedding: id out of range [0, %d)" % v)
    return getitem(weight, idx)


def dropout(a, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: keep with prob 1-p and scale by 1/(1-p)."""
    a = as_tensor(a)
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout: p must be in [0, 1), got %r" % p)
    if p == 0.0:
        return a
    return mul(a, (rng.random(a.data.shape) >= p) / (1.0 - p))


def causal_conv1d(x, weight, bias, window: int) -> Tensor:
    """Windowed causal convolution along axis 0.

    x is (S, ..., E); output position t sees x[t : t+window] flattened, so a
    left-padded input of length S yields S-window+1 causal outputs.  weight
    is (window*E, H), bias (H,).  It sums bias and x[k : k+t_out] @ (weight's
    k-th E rows) in ascending k, slicing the shifts in descending k so that
    the sweep sums x's adjoint in ascending k.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    xd, wd, bd = x.data, weight.data, bias.data
    s, e = xd.shape[0], xd.shape[-1]
    t_out = s - window + 1
    if window < 1 or t_out < 1:
        raise ShapeError("causal_conv1d: window %d is not in [1, input length %d]" % (window, s))
    if wd.ndim != 2 or wd.shape[0] != window * e or bd.shape != (wd.shape[1],):
        raise ShapeError("causal_conv1d: weight %s bias %s incompatible with window %d x feature %d"
                         % (weight.shape, bias.shape, window, e))
    shifts = [x[k : k + t_out] for k in range(window - 1, -1, -1)][::-1]
    out = bias
    for k, shift in enumerate(shifts):
        out = out + matmul(shift, weight[k * e : (k + 1) * e])
    return out


def cross_entropy_logits(logits, targets) -> Tensor:
    """Per-row cross entropy in nats: logits (N, V), integer targets (N,)."""
    logits = as_tensor(logits)
    ld = logits.data
    tgt = np.asarray(targets, dtype=np.int64)
    if ld.ndim != 2 or tgt.shape != (ld.shape[0],):
        raise ShapeError("cross_entropy_logits: logits %s targets %s" % (logits.shape, tgt.shape))
    if tgt.size and (tgt.min() < 0 or tgt.max() >= ld.shape[1]):
        raise ShapeError("cross_entropy_logits: target id out of range [0, %d)" % ld.shape[1])
    m = ld.max(axis=-1, keepdims=True)
    z = np.subtract(ld, m)
    np.exp(z, out=z)  # in place: one (N, V) array, the one bwd keeps
    zsum = z.sum(axis=-1)
    lse = m[:, 0] + np.log(zsum)
    rows = np.arange(ld.shape[0])
    out = lse - ld[rows, tgt]

    def bwd(dy):
        grad = z / zsum[:, None]
        grad[rows, tgt] -= 1.0
        grad *= dy[:, None]
        return (grad,)

    return _apply(out, (logits.tracked,), bwd)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between the analytic gradient of scalar f at x and
    central finite differences with step eps.  x is a leaf for the taped
    pass; its key is then restored (None for a plain tensor)."""
    if eps <= 0:
        raise ValueError("grad_check: eps must be positive")
    was = x.tracked
    x.tracked = x
    x.grad = None
    with Tape():
        y = f(x)
        if y.data.size != 1:
            raise ShapeError("grad_check: f must be scalar-valued, got %s" % (y.shape,))
        backward(y)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    x.grad = None
    x.tracked = was

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + eps
        hi = float(f(x).data)
        flat[k] = orig - eps
        lo = float(f(x).data)
        flat[k] = orig
        nflat[k] = (hi - lo) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())


# ---------------------------------------------------------------------------
# Parameter checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"SYDLMCK1"


def save_checkpoint(path: str, params: dict, header: Optional[dict] = None) -> None:
    """Flat (name, shape, little-endian float64) records behind a versioned
    magic header; the header dict (JSON) carries the run config."""
    import json

    blob = json.dumps(header or {}, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(params)))
        for name, tensor in params.items():
            data = tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor, dtype=np.float64)
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", data.ndim))
            for dim in data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())


def load_checkpoint(path: str):
    import json

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int) -> bytes:
            data = fh.read(n)
            if len(data) != n:
                raise ValueError("%s: checkpoint truncated at byte %d" % (path, fh.tell()))
            return data

        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError("%s is not a checkpoint (bad magic)" % path)
        (hlen,) = struct.unpack("<I", read(4))
        try:
            header = json.loads(read(hlen).decode("utf-8"))
        except RecursionError:  # the decoder recurses once per nesting level
            raise ValueError("%s: checkpoint header is nested too deeply" % path) from None
        (count,) = struct.unpack("<I", read(4))
        params = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", read(2))
            name = read(nlen).decode("utf-8")
            (ndim,) = struct.unpack("<B", read(1))
            shape = tuple(struct.unpack("<I", read(4))[0] for _ in range(ndim))
            nbytes = 8 * math.prod(shape)  # a Python int: no overflow
            if nbytes > size - fh.tell():
                raise ValueError("%s: checkpoint truncated: parameter %r of shape %s needs %d bytes, "
                                 "%d remain" % (path, name, shape, nbytes, size - fh.tell()))
            if name in params:
                raise ValueError("%s: checkpoint records parameter %r twice" % (path, name))
            params[name] = np.frombuffer(read(nbytes), dtype="<f8").reshape(shape).astype(np.float64)
        if fh.read(1):
            raise ValueError("%s: trailing bytes after the last parameter record" % path)
    return header, params
