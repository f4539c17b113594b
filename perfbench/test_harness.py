"""Smoke test of the benchmark harness on a tiny corpus (circulants 4 <= n <= 6).

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import run  # noqa: E402
from record_reference import build_reference  # noqa: E402
from workloads import DEFAULT_CONFIG, Workload  # noqa: E402

TINY = {**DEFAULT_CONFIG, "circulant_orders": [4, 5, 6], "cayley_groups": [],
        "paley_primes": [7]}


@pytest.fixture(scope="module")
def reference():
    return build_reference("tiny", TINY)


def _result(lines):
    return json.loads(lines[-1])


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(reference, trace, parallelism):
    workload = Workload("tiny", TINY, "", parallelism=parallelism)
    units = run.metric_units(trace)
    outcome = run.measure(workload, reference, seed=3, seconds=0.0, trace=trace)
    result = _result(run.render(outcome, units))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(units)
    for name, unit in units.items():
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
    if trace:
        metrics = outcome["metrics"]
        assert metrics["trace.spans"] > 0
        assert metrics["symmetry.aut_search_calls"] == len(reference["instances"])
        assert metrics["perm.mul_calls"] > 0


def test_planted_wrong_verdict_is_counted(reference):
    planted = json.loads(json.dumps(reference))
    row = planted["instances"][0]
    wrong = "n" if row["status"][1] == "p" else "p"  # flip the second check
    row["status"] = row["status"][0] + wrong + row["status"][2:]
    workload = Workload("tiny", TINY, "")
    outcome = run.measure(workload, planted, seed=3, seconds=0.0, trace=False)
    assert outcome["failed"] == 1
    assert outcome["failed"] / outcome["attempted"] > 0
    assert not _result(run.render(outcome, run.metric_units(False)))["correct"]


def test_report_facts_are_compared(reference):
    planted = json.loads(json.dumps(reference))
    planted["instances"][-1]["aut"] += 1
    outcome = run.measure(Workload("tiny", TINY, ""), planted, seed=3, seconds=0.0,
                          trace=False)
    assert outcome["failed"] == 1
    assert "report facts" in outcome["meta"]["problems"][0]


def test_incomplete_in_reference_accepts_pass(reference):
    relaxed = json.loads(json.dumps(reference))
    for row in relaxed["instances"]:
        row["status"] = row["status"].replace("p", "i")
    outcome = run.measure(Workload("tiny", TINY, ""), relaxed, seed=3, seconds=0.0,
                          trace=False)
    assert outcome["failed"] == 0


def test_percentile_weighs_the_ranks_around_it():
    assert run.percentile([7.0] * 50, 90) == pytest.approx(7.0)
    ranks = [float(i) for i in range(1, 125)]
    assert run.percentile(ranks, 50) == pytest.approx(62.5)
    assert run.percentile(ranks, 90) == pytest.approx(0.9 * 124 + 0.5, abs=0.05)
    # A jump just above the 90th percentile's rank moves the estimate
    # partly, not all the way as the single order statistic would.
    jumped = ranks[:113] + [v * 3 for v in ranks[113:]]
    assert ranks[112] < run.percentile(jumped, 90) < jumped[113]


def test_long_instance_is_scaled_by_the_samples_inside_it():
    fast, slow = [calibration.REFERENCE_S] * 2, [2 * calibration.REFERENCE_S] * 2
    samples = [fast] * 10 + [slow] * 20 + [fast] * 11
    # Instances 0-8 are short; instance 9 runs from sample 9 to sample 30.
    starts = list(range(10)) + list(range(30, 40))
    slowdowns = calibration.local_slowdowns(samples, starts)
    assert slowdowns[0] == pytest.approx(1.0)
    # 20 samples at slowdown 2 inside it, one at 1 on either edge:
    # harmonic mean 22 / (2 + 20 / 2).
    assert slowdowns[9] == pytest.approx(22 / 12)
