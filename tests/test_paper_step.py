"""tools/paper_step.py, the taped-step probe, runs at desk shape and
reports every field as a finite number."""

import json
import math
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "paper_step.py"


def test_desk_step_reports_every_field_finite():
    proc = subprocess.run([sys.executable, str(TOOL), "--shape", "desk", "--repeat", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    record = json.loads(line)
    assert record["shape"] == "desk" and record["chunk"] == 1 and record["step"] == 1
    for field in ("forward_s", "backward_s", "peak_rss_mb", "tape_nodes", "tape_mb"):
        assert math.isfinite(record[field]) and record[field] > 0, field
    by_kind = record["tape_mb_by_kind"]
    assert {"matmul", "mul", "concat"} <= set(by_kind)
    assert all(math.isfinite(v) and v > 0 for v in by_kind.values())
    assert math.isclose(sum(by_kind.values()), record["tape_mb"], rel_tol=1e-12)
