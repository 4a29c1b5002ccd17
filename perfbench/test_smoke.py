"""Smoke test of every workload, untraced and traced: the harness runs, every
output passes its check, and the printed metrics are exactly those that
BENCHMARK.json lists. No speed is asserted.

    python3 -m pytest perfbench
"""

import json

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", autouse=True)
def library():
    run.load_library()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke(workload, trace):
    result, _, record = run.run(workload, seed=7, seconds=0.5, trace=trace, setup_reps=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == listed
    assert record["src_lines"] > 0
