"""Time and size taped language-model steps at a fixed shape.

Runs K taped steps (forward, LM loss, backward) of ON-LSTM-SYD or PRPN-SYD
in this process, with BLAS on one thread, and prints one JSON line per step:
forward and backward seconds, the process's peak RSS so far, the tape's
node count, and the bytes the tape keeps, in total and by primitive kind.
As in ``training.train``, the forward's output is dropped before the
sweep; ``backward_s`` times the sweep alone.  A node holds no array, so
what the tape keeps is the distinct arrays its ``bwd`` closures hold: those
in the closures' cells, found through tuples and lists.  They are counted,
with the nodes, at the end of the forward: the sweep releases each
closure, so a swept tape holds none.  The kind is the first part of the
``bwd.__qualname__``, as perfbench/tracer.py counts backward time.  An
array is counted once, at the first node whose closure holds it: a view
counts through its ``.base``.  Arrays of parameters are not counted, and
keys (nodes and leaf tensors) are not walked.

    python tools/paper_step.py --shape paper --chunk 1 --repeat 2
    python tools/paper_step.py --shape mid --src DIR    # another checkout's src/
    python tools/paper_step.py --model prpn-syd --shape desk --bptt 140

Shapes, all B20 with the package's default dropout and a tied decoder:
desk is 3x24 with embedding 16 and vocabulary 100, mid 3x256 with 128 and
5000, and paper 3x1150 with 400 and 5000 (Shen et al. 2019, arXiv
1810.09536).  The window is T35 unless --bptt says otherwise; the chunk
size applies to ON-LSTM only.  Run each measurement in a fresh process:
peak RSS covers the whole process.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.dont_write_bytecode = True

SHAPES = {  # (layers, hidden, embedding, vocabulary)
    "desk": (3, 24, 16, 100),
    "mid": (3, 256, 128, 5000),
    "paper": (3, 1150, 400, 5000),
}
BATCH = 20


def _root(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def tape_bytes(tape, params) -> dict:
    """{kind: bytes} of the distinct arrays the tape's bwd closures hold."""
    seen = {id(_root(p.data)) for p in params}
    by_kind: dict = {}
    for node in tape.nodes:
        kind = node.bwd.__qualname__.split(".", 1)[0]
        stack = [cell.cell_contents for cell in node.bwd.__closure__ or ()]
        while stack:
            v = stack.pop()
            if type(v) in (tuple, list):
                stack.extend(v)
            elif type(v) is np.ndarray:
                root = _root(v)
                if id(root) not in seen:
                    seen.add(id(root))
                    by_kind[kind] = by_kind.get(kind, 0) + root.nbytes
    return by_kind


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--model", choices=("onlstm-syd", "prpn-syd"), default="onlstm-syd")
    parser.add_argument("--shape", choices=sorted(SHAPES), default="paper")
    parser.add_argument("--bptt", type=int, default=35, metavar="T", help="window length")
    parser.add_argument("--chunk", type=int, default=1, help="ON-LSTM chunk size")
    parser.add_argument("--repeat", type=int, default=2, metavar="K", help="steps to run")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the sydlm package (default: this checkout's src/)")
    args = parser.parse_args()
    if args.repeat < 1 or args.bptt < 1:
        parser.error("--repeat and --bptt must be at least 1")
    sys.path.insert(0, args.src)
    from sydlm import autodiff as ad
    from sydlm import build_model
    from sydlm.config import ModelConfig, TrainConfig
    from sydlm.training import lm_loss

    layers, hidden, emb, vocab = SHAPES[args.shape]
    cfg = ModelConfig(vocab_size=vocab, model=args.model, n_layers=layers, hidden_size=hidden,
                      embedding_size=emb, chunk_factor=args.chunk, tie_embeddings=True)
    train_cfg = TrainConfig(model=cfg)
    model = build_model(cfg, seed=1)
    params = list(model.params.values())
    rng = np.random.default_rng(0)
    for step in range(1, args.repeat + 1):
        ids = rng.integers(0, vocab, size=(args.bptt + 1, BATCH))
        model.zero_grad()
        with ad.Tape() as tape:
            t0 = time.perf_counter()
            out = model.forward(ids[:-1], None, rng=rng, train_cfg=train_cfg)
            loss = lm_loss(out.logits, ids[1:].reshape(-1), np.ones(args.bptt * BATCH))
            t1 = time.perf_counter()
            by_kind = tape_bytes(tape, params)
            nodes = len(tape)
            del out  # as training.train does: no bwd reads the logits
            t2 = time.perf_counter()
            ad.backward(loss)
            t3 = time.perf_counter()
        mb = 1024.0 * 1024.0
        print(json.dumps({
            "model": args.model, "shape": args.shape, "chunk": args.chunk, "bptt": args.bptt,
            "step": step,
            "forward_s": t1 - t0, "backward_s": t3 - t2,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "tape_nodes": nodes, "tape_mb": sum(by_kind.values()) / mb,
            "tape_mb_by_kind": {k: v / mb for k, v in sorted(by_kind.items(), key=lambda kv: -kv[1])},
        }), flush=True)
        del loss, tape  # free this step's graph before the next forward
    return 0


if __name__ == "__main__":
    sys.exit(main())
