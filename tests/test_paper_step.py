"""tools/paper_step.py, the taped-step probe, runs small ON-LSTM-SYD and
PRPN-SYD steps and reports every field as a finite number, with the tape
measured as the arrays its backward closures hold."""

import json
import math
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "paper_step.py"


def check_step(model: str, bptt: int, kinds: set) -> None:
    proc = subprocess.run([sys.executable, str(TOOL), "--model", model, "--shape", "desk",
                           "--bptt", str(bptt), "--repeat", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    record = json.loads(line)
    assert (record["model"], record["shape"], record["chunk"], record["bptt"], record["step"]) == (
        model, "desk", 1, bptt, 1)
    for field in ("forward_s", "backward_s", "peak_rss_mb", "tape_nodes", "tape_mb"):
        assert math.isfinite(record[field]) and record[field] > 0, field
    by_kind = record["tape_mb_by_kind"]
    # concat's, add's and reshape's backward closures read no values
    assert kinds <= set(by_kind) and not {"concat", "add", "reshape"} & set(by_kind)
    assert all(math.isfinite(v) and v > 0 for v in by_kind.values())
    assert math.isclose(sum(by_kind.values()), record["tape_mb"], rel_tol=1e-12)


def test_desk_step_reports_every_field_finite():
    check_step("onlstm-syd", 35, {"matmul", "mul", "sigmoid", "tanh", "softmax"})


def test_prpn_syd_step_reports_every_field_finite():
    check_step("prpn-syd", 20, {"matmul", "mul", "div", "hardtanh", "relu"})
