"""The benchmark's outside-in tracer must still find every name it patches
in the package, must put every one of them back, and must be able to name
the primitive behind every backward call.

The checks run in a fresh interpreter: in this process other test modules
have already imported sydlm's submodules, which would hide a module that a
plain `import sydlm` fails to load."""

import os
import subprocess
import sys
from pathlib import Path

import sydlm

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

CHECK = """
import importlib.util
import sys

import sydlm.autodiff as ad
import sydlm.training as training

spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
tracer = module.Tracer()
train, backward = training.train, ad.backward
tracer.install()
try:
    patched = list(tracer._undo)
    assert training.train is not train
    assert ad.backward is not backward
finally:
    tracer.uninstall()
assert patched
first = {}
for owner, attr, original in patched:  # an attribute patched twice keeps its first original
    first.setdefault((id(owner), attr), (owner, attr, original))
for owner, attr, original in first.values():
    assert owner.__dict__[attr] is original, "%r.%s not restored" % (owner, attr)
assert training.train is train and ad.backward is backward
print("restored %d attributes" % len(first))
"""


BACKWARD_SPLIT = """
import importlib.util
import sys

import numpy as np

import sydlm.autodiff as ad
import sydlm.training as training
from sydlm.config import ModelConfig, TrainConfig
from sydlm.models import build_model

spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
tracer = module.Tracer()
kinds = [dict(model="onlstm-syd", n_layers=2, hidden_size=8, chunk_factor=2, supervision_layer=2),
         dict(model="prpn-syd", n_layers=1, hidden_size=8, supervision_layer=1, prpn_ff_hidden=8),
         dict(model="prpn", n_layers=1, hidden_size=8, supervision_layer=1, prpn_ff_hidden=8,
              supervision_mode="none")]
rng = np.random.default_rng(0)
tracer.install()
try:
    for kind in kinds:
        cfg = ModelConfig(vocab_size=12, embedding_size=8, **kind)
        model = build_model(cfg, seed=1)
        ids = rng.integers(0, 12, size=(7, 2))
        with ad.Tape():
            out = model.forward(ids[:-1], None, rng=rng, train_cfg=TrainConfig(model=cfg))
            d_w = out.d_syd if out.d_syd is not None else out.d_lm[0]
            loss = (training.lm_loss(out.logits, ids[1:].reshape(-1), np.ones(12))
                    + training.ranking_loss(d_w, rng.normal(size=12), np.zeros(12, dtype=np.int64)))
            ad.backward(loss)
        assert all(p.grad is not None for p in model.params.values()), cfg.model
finally:
    tracer.uninstall()
assert tracer.bwd_calls and "other" not in tracer.bwd_calls, dict(tracer.bwd_calls)
print("split %d backward calls" % sum(tracer.bwd_calls.values()))
"""


def _run(script):
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(sydlm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(TRACER)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_install_patches_and_uninstall_restores():
    assert _run(CHECK).startswith("restored ")


def test_every_backward_call_is_split_by_primitive():
    # each node's bwd closure must be named after the primitive that made it
    assert _run(BACKWARD_SPLIT).startswith("split ")
