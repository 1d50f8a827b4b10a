"""Smoke test of the benchmark on a tiny workload.

    python3 -m pytest perfbench/test_smoke.py
"""

import json

import run
from churnskip import maintenance, skiplist

TINY = run.Workload("tiny", n=128, churn_rate=1, query_density=0.01, cycles=3)
SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


def test_every_named_metric_is_emitted_with_its_unit():
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.measure(TINY, 1, seconds=0, trace=trace)
        assert result["correct"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
        for spec in SPEC[section]:
            emitted = result["metrics"][spec["name"]]
            assert emitted["unit"] == spec["unit"], spec["name"]
            assert isinstance(emitted["value"], (int, float)), spec["name"]
    # the traced run put every original back
    assert maintenance.search is skiplist.search


def test_two_runs_in_one_process_give_the_same_trace_hash():
    first = run.run_rep(TINY, 1)
    second = run.run_rep(TINY, 1)
    assert not first.problems
    assert first.identity["trace_sha256"] == second.identity["trace_sha256"]
    assert first.identity == second.identity
