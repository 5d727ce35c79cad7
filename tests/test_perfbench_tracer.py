"""The benchmark's outside-in tracer must still find every name it patches
in the package, and must put every one of them back.

The check runs in a fresh interpreter: in this process other test modules
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


def test_install_patches_and_uninstall_restores():
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(sydlm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHECK, str(TRACER)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("restored ")
