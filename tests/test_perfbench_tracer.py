"""The benchmark's outside-in tracer must still find every name it patches
in the package, and must put every one of them back."""

import importlib.util
from pathlib import Path

import sydlm.autodiff as ad
import sydlm.training as training

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_and_uninstall_restores():
    tracer = _load_tracer().Tracer()
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
