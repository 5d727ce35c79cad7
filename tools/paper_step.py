"""Time and size taped language-model steps of ON-LSTM-SYD at a fixed shape.

Runs K taped steps (forward, LM loss, backward) in this process, with BLAS
on one thread, and prints one JSON line per step: forward and backward
seconds, the process's peak RSS so far, the tape's node count, and the
bytes of node outputs the tape holds, in total and by primitive kind.  The
kind is the first part of the node's ``bwd.__qualname__``, as
perfbench/tracer.py counts backward time.  An array is counted once, at the
first node whose output lies in it: a view counts through its ``.base``.
Arrays of parameters are not counted.

    python tools/paper_step.py --shape paper --chunk 1 --repeat 2
    python tools/paper_step.py --shape mid --src DIR    # another checkout's src/

Shapes, all T35 B20 with the package's default dropout and a tied decoder:
desk is 3x24 with embedding 16 and vocabulary 100, mid 3x256 with 128 and
5000, and paper 3x1150 with 400 and 5000 (Shen et al. 2019, arXiv
1810.09536).  Run each measurement in a fresh process: peak RSS covers the
whole process.
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
T_LEN, BATCH = 35, 20


def tape_bytes(tape, params) -> dict:
    """{kind: bytes} of the distinct arrays behind the tape's node outputs."""
    seen = {id(p.data if p.data.base is None else p.data.base) for p in params}
    by_kind: dict = {}
    for node in tape.nodes:
        data = node.out.data
        root = data if data.base is None else data.base
        if id(root) in seen:
            continue
        seen.add(id(root))
        kind = node.bwd.__qualname__.split(".", 1)[0]
        by_kind[kind] = by_kind.get(kind, 0) + root.nbytes
    return by_kind


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), default="paper")
    parser.add_argument("--chunk", type=int, default=1, help="ON-LSTM chunk size")
    parser.add_argument("--repeat", type=int, default=2, metavar="K", help="steps to run")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the sydlm package (default: this checkout's src/)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sys.path.insert(0, args.src)
    from sydlm import autodiff as ad
    from sydlm import build_model
    from sydlm.config import ModelConfig, TrainConfig
    from sydlm.training import lm_loss

    layers, hidden, emb, vocab = SHAPES[args.shape]
    cfg = ModelConfig(vocab_size=vocab, model="onlstm-syd", n_layers=layers, hidden_size=hidden,
                      embedding_size=emb, chunk_factor=args.chunk, tie_embeddings=True)
    train_cfg = TrainConfig(model=cfg)
    model = build_model(cfg, seed=1)
    params = list(model.params.values())
    rng = np.random.default_rng(0)
    for step in range(1, args.repeat + 1):
        ids = rng.integers(0, vocab, size=(T_LEN + 1, BATCH))
        model.zero_grad()
        with ad.Tape() as tape:
            t0 = time.perf_counter()
            out = model.forward(ids[:-1], None, rng=rng, train_cfg=train_cfg)
            loss = lm_loss(out.logits, ids[1:].reshape(-1), np.ones(T_LEN * BATCH))
            t1 = time.perf_counter()
            ad.backward(loss)
            t2 = time.perf_counter()
            by_kind = tape_bytes(tape, params)
            nodes = len(tape)
        mb = 1024.0 * 1024.0
        print(json.dumps({
            "shape": args.shape, "chunk": args.chunk, "step": step,
            "forward_s": t1 - t0, "backward_s": t2 - t1,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "tape_nodes": nodes, "tape_mb": sum(by_kind.values()) / mb,
            "tape_mb_by_kind": {k: v / mb for k, v in sorted(by_kind.items(), key=lambda kv: -kv[1])},
        }), flush=True)
        del out, loss, tape  # free this step's graph before the next forward
    return 0


if __name__ == "__main__":
    sys.exit(main())
