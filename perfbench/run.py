"""Benchmark of sydlm: one workload per process, measured in a closed loop.

    python3 perfbench/run.py --workload onlstm-desk --seed 1 --seconds 27 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory.  With --trace 0 the run reports the end-to-end metrics;
with --trace 1 it reports the per-layer metrics from the outside-in tracer,
and writes every span to perfbench/out/.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread: on a 2-core host, two threads made the mid-size training
# step several times slower whenever another process held a core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
SETUP_SHARE = 0.2   # share of the measured time given to repeated set-ups
HOST_SHARE = 0.1    # share of the measured time given to the host-speed check


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "sydlm" / "__init__.py").is_file():
        raise SystemExit("perfbench: no sydlm package under %s; run from a source checkout" % src)
    sys.path.insert(0, str(src))
    import sydlm

    if Path(sydlm.__file__).resolve().parent != (src / "sydlm").resolve():
        raise SystemExit("perfbench: imported sydlm from %s, not from %s" % (sydlm.__file__, src))


class Measure:
    """Attempted and failed operations of one run, the first operation's
    output (later ones must equal it).

    Every timed operation and set-up starts from a collected heap: a user's
    run starts in a fresh process, and a collection owed by earlier work
    would otherwise land in the timed part at random."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.notes: list = []
        self.first = None

    def record(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def operation(self, work, tracer=None):
        """One timed operation with its checks; returns seconds, or None if it failed."""
        work.fresh()
        gc.collect()
        root = None
        if tracer is not None:
            tracer.run = self.attempted
            root = tracer.open("bench.op")
        t0 = time.perf_counter()
        try:
            result = work.run()
        except Exception as exc:  # a diverged step or a crash is one failed operation
            self.record(["%s: %s" % (type(exc).__name__, exc)])
            return None
        finally:
            if root is not None:
                tracer.close(root)
        seconds = time.perf_counter() - t0
        problems = work.check(result)
        if not problems:
            if self.first is None:
                self.first = result
            elif work.fingerprint(result) != work.fingerprint(self.first):
                problems = ["output differs from the first operation of this run"]
        self.record(problems)
        return None if problems else seconds


# Host-speed checks: fixed pieces of work that do not touch sydlm.  On a
# shared host, speed drifts by up to 2x within minutes, which no run length
# averages out.  Run medians of the check that matches a workload's kind of
# work move with those of its operations, so end-to-end times are scaled to
# the reference host, on which each check takes the time given here.


def _interpreter_check() -> float:
    """Seconds for small-array steps in the interpreter, where most of the
    time of the small models and of evaluation goes."""
    a = np.full((20, 24), 0.5)
    w = np.eye(24) * 0.9
    acc = {}
    t0 = time.perf_counter()
    for i in range(6000):
        a = np.tanh(a @ w) + 0.01
        acc[i % 31] = acc.get(i % 31, 0.0) + float(a[i % 20, i % 24])
        acc[-1] = sum([j * j for j in range(20)])
    return time.perf_counter() - t0


def _blas_check() -> float:
    """Seconds for matrix products of the mid-size model's shapes, where most
    of its training time goes."""
    h = np.full((700, 256), 0.01)
    w = np.full((256, 1000), 0.001)
    t0 = time.perf_counter()
    for _ in range(2):
        h.T @ (h @ w)
    return time.perf_counter() - t0


HOST_CHECKS = {"interpreter": (_interpreter_check, 0.05), "blas": (_blas_check, 0.03)}


def _timed_setup(work) -> float:
    gc.collect()
    t0 = time.perf_counter()
    work.setup()
    return time.perf_counter() - t0


def _traced(work, spec, measure, seconds) -> dict:
    """Per-layer metrics: untraced and traced operations in turn, set-up traced once."""
    setup_tracer = tracing.Tracer()
    setup_tracer.install()
    try:
        setup_tracer.run = "setup"
        work.setup()
    finally:
        setup_tracer.uninstall()
    measure.record(workloads.check_canary(spec, work.workdir / "canary"))
    # Alternating, both sides sample the same host-speed phases; the tracer
    # is installed and removed outside the timed part of each operation.
    op_tracer = tracing.Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        dt = measure.operation(work)
        if dt is not None:
            plain.append(dt)
        op_tracer.install()
        try:
            dt = measure.operation(work, op_tracer)
        finally:
            op_tracer.uninstall()
        if dt is not None:
            traced.append(dt)
        if time.perf_counter() >= deadline:
            break
    if not plain or not traced:
        return {}
    n = len(traced)
    layer = tracing.layer_metrics(op_tracer, n, tracing.training_steps(op_tracer),
                                  work.tokens * n, spec.epochs * n if spec.kind == "train" else 0)
    layer["trace.overhead_share"] = 1.0 - statistics.median(plain) / statistics.median(traced)
    layer["setup.trees.parse_s"] = setup_tracer.total("trees.parse")
    layer["setup.corpus.preprocess_s"] = setup_tracer.total("corpus.preprocess")
    op_tracer.write(str(OUT / ("trace-%s.jsonl" % work.workdir.name)))
    return {name: (value, tracing.unit(name)) for name, value in layer.items()}


def _untraced(work, spec, measure, seconds) -> dict:
    host_check, reference_s = HOST_CHECKS[spec.host_check]
    checks = [host_check()]
    setups = [_timed_setup(work)]
    measure.record(workloads.check_canary(spec, work.workdir / "canary"))
    times = []
    start = time.perf_counter()
    while True:
        dt = measure.operation(work)
        if dt is not None:
            times.append(dt)
        # Set-ups and host checks run between operations, so that they
        # sample the same host-speed phases as the operations do.
        while sum(setups) < SETUP_SHARE * (time.perf_counter() - start):
            setups.append(_timed_setup(work))
        while sum(checks) < HOST_SHARE * (time.perf_counter() - start):
            checks.append(host_check())
        if time.perf_counter() - start >= seconds:
            break
    if not times:
        return {}
    while len(setups) < SETUP_REPEATS:
        setups.append(_timed_setup(work))
    slowdown = statistics.median(checks) / reference_s
    tok_s = statistics.median([work.tokens / t for t in times])
    setup_s = statistics.median(setups)
    measure.notes.append("%s check %.4f s over %d, %.3f x the reference: measured tok_s %.6g, setup_s %.6g"
                         % (spec.host_check, statistics.median(checks), len(checks), slowdown, tok_s,
                            setup_s))
    return {
        "tok_s": (tok_s * slowdown, "tok/s"),
        "ppl": (work.quality(measure.first)["ppl"], "ppl"),
        "setup_s": (setup_s / slowdown, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()

    spec = workloads.SPECS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / ("%s-%d" % (spec.name, args.seed))
    measure = Measure()
    try:
        work = workloads.make(spec, str(args.seed), workdir)
        collect = _traced if args.trace else _untraced
        metrics = collect(work, spec, measure, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not metrics:
        print("perfbench: no operation succeeded: %s" % "; ".join(measure.problems[:5]),
              file=sys.stderr)
        return 1

    print("workload %s seed %d: %d operations, %d failed (failed_share %.3f)"
          % (spec.name, args.seed, measure.attempted, measure.failed,
             measure.failed / measure.attempted))
    for key, value in sorted(work.quality(measure.first).items()):
        print("  quality %-36s %14.6g" % (key, value))
    for note in measure.notes:
        print("  %s" % note)
    for problem in measure.problems[:10]:
        print("  FAILED: %s" % problem)
    for name, (value, unit) in metrics.items():
        print("  %-44s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": measure.failed == 0,
        "attempted": measure.attempted,
        "failed": measure.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
