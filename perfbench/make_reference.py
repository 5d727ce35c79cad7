"""Write perfbench/reference.json: each workload's canary quality numbers.

    python3 perfbench/make_reference.py

The output checks compare every run's canary with these values, so run
this only in a change that alters the models' arithmetic on purpose, and
say so in that change.
"""

from __future__ import annotations

import json
import shutil

import run  # pins BLAS threads before numpy is imported
import workloads


def main() -> None:
    run._import_program()
    reference = {}
    for name, spec in workloads.SPECS.items():
        workdir = run.OUT / ("reference-" + name)
        try:
            reference[name] = workloads.canary(spec, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(name, reference[name])
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
