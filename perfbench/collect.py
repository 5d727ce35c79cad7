"""Run the benchmark over several seeds, one process at a time, and
summarise each metric as median and quartiles.

    python3 perfbench/collect.py --seeds 1-10 [--workload NAME ...] [--trace 1]
        [--json perfbench/out/collect.json]

Spread is (q3 - q1) / median over the seeds, with the quartiles of
statistics.quantiles(values, n=4); it is compared with the metric's bound
from BENCHMARK.json.  The JSON file also records each run's printed lines,
and the machine and library versions the numbers came from.  Run from the
root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d:\n%s" % (workload, seed, proc.returncode,
                                                          proc.stderr[-2000:]))
    *log, last = proc.stdout.strip().splitlines()
    return dict(json.loads(last), log=log)


def environment() -> dict:
    import numpy

    import run

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": run.BLAS_THREADS,
            "cpu": cpu, "platform": platform.platform()}


def summarise(values: list) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every run and the summary here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    runs, summary, ok = {}, {}, True
    for workload in args.workload or names:
        runs[workload] = []
        for seed in _seeds(args.seeds):
            result = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs[workload].append(dict(result, seed=seed))
            ok &= result["correct"]
            print("%s seed %d: correct %s, %d/%d failed, %s" % (
                workload, seed, result["correct"], result["failed"], result["attempted"],
                ", ".join("%s %.6g" % (k, v["value"]) for k, v in result["metrics"].items()
                          if bounds.get(k) is not None)), flush=True)
        summary[workload] = {}
        for metric in runs[workload][0]["metrics"]:
            stats = summarise([r["metrics"][metric]["value"] for r in runs[workload]])
            stats["unit"] = runs[workload][0]["metrics"][metric]["unit"]
            summary[workload][metric] = stats
            bound = bounds.get(metric)
            if bound is not None:
                flag = "ok" if stats["spread"] < bound / 3 else (
                    "within bound" if stats["spread"] <= bound else "TOO WIDE")
                print("  %-14s %-12s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.4f / bound %.2f  %s"
                      % (workload, metric, stats["median"], stats["q1"], stats["q3"],
                         stats["spread"], bound, flag))
    if args.json:
        payload = {"environment": environment(), "run_seconds": bench["run_seconds"],
                   "trace": args.trace, "seeds": args.seeds, "summary": summary, "runs": runs}
        Path(args.json).write_text(json.dumps(payload, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
