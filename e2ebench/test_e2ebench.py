"""Self-tests of the benchmark, on the ``--toy`` inputs.

Every count the traced run reports repeats exactly across two runs
with one seed, and a second seed passes every output check.  Run
from the repository root::

    python3 -m pytest e2ebench/test_e2ebench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "e2ebench"))

from common import WORKLOADS, catalogue  # noqa: E402

#: Counts that depend only on the inputs (the gc's collection count
#: depends on allocation history, so it is not among them).
COUNTS = sorted(
    name
    for name, unit in catalogue("per_layer").items()
    if unit == "count" and name != "runtime.gc_collections"
)


def run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "e2ebench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def output_size(stdout: str) -> str:
    return [line for line in stdout.splitlines() if "note k:" in line or "n_edges" in line][0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_with_one_seed(workload):
    (a, out_a), (b, out_b) = run(workload, 3, 1), run(workload, 3, 1)
    assert a["correct"] and b["correct"]
    got_a = {n: a["metrics"][n]["value"] for n in COUNTS}
    got_b = {n: b["metrics"][n]["value"] for n in COUNTS}
    assert got_a == got_b
    assert output_size(out_a) == output_size(out_b)
    if workload.startswith("parallel"):
        assert got_a["pram.phase1.work"] > 0 and got_a["pram.phase2.depth"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_passes_every_check(workload):
    result, _out = run(workload, 4, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 1
