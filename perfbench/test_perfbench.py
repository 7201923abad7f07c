"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py
"""

import json
import os
import random
import subprocess
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import check  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gfaber import noise  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _scaled_fit(scenario, factor):
    fit = scenario.noise
    return replace(
        scenario,
        noise=noise.QApprox(
            a=fit.a, p=tuple(factor * p for p in fit.p), q=fit.q,
            source=fit.source,
        ),
    )


def test_every_end_to_end_metric_is_formed_for_every_workload():
    spec = _spec()
    for workload in run.WORKLOADS:
        outcomes = [measure.Outcome(points=5, failed=1)] * 4
        timing = measure.Timing(
            times=[[0.01, 0.02]] * 4, outcomes=outcomes, passes=2,
            elapsed_s=0.1, consistent=True, reference_s=[0.002],
        )
        metrics, points, failed = run.end_to_end(
            workload, [None] * 4, timing, [0.5, 0.6, 0.7], 40.0
        )
        assert (points, failed) == (20, 4)
        for entry in spec["end_to_end"]:
            value, unit = metrics[entry["name"]]
            assert unit == entry["unit"], (workload, entry["name"])
            assert value > 0


def test_run_prints_every_metric_by_name_and_unit():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "closed_dense", "--seed", "0", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["attempted"] == len(workloads.DENSE_GRID) * 29
    printed = {
        line.split()[1]: line.split()[3]
        for line in lines if line.startswith("metric ")
    }
    for entry in _spec()["end_to_end"]:
        assert printed[entry["name"]] == entry["unit"]
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    for name in ("points_per_s", "fail_frac", "peak_rss_mb", "setup_s"):
        assert name in printed
    assert any(line.startswith("checksum ") for line in lines)
    assert "check PASS problems=0" in lines


def test_output_check_catches_weights_scaled_by_1_001():
    curves = workloads.closed_dense(0)[:6]
    rng = random.Random(1)
    good = [measure.run_closed(c).values[0] for c in curves]
    problems, statuses = check.check_against_oracle(curves, good, 2, rng)
    assert problems == [] and statuses["agree"] == 12
    broken = [
        measure.run_closed(
            workloads.Curve(c.label, _scaled_fit(c.scenario, 1.001))
        ).values[0]
        for c in curves
    ]
    assert len(check.check_against_oracle(curves, broken, 2, rng)[0]) == 12


def test_verify_check_catches_weights_scaled_by_1_001():
    curve = workloads.oracle_verify(0)[0]
    outcome = measure.run_verify(curve)
    assert check.check_verify_columns([curve], [outcome])[0] == []
    closed = measure.run_closed(
        workloads.Curve(curve.label, _scaled_fit(curve.scenario, 1.001))
    ).values[0]
    broken = replace(outcome, values=(closed,) + outcome.values[1:])
    assert check.check_verify_columns([curve], [broken])[0]


def test_absolute_floor_covers_the_underflowing_point():
    curve = workloads.corner_curves((30.0,))[3]
    closed = measure.run_closed(curve).values[0]
    problems, statuses = check.check_against_oracle(
        [curve], [closed], 1, random.Random(0)
    )
    assert problems == [] and statuses["agree"] == 1


def test_an_oracle_miss_is_settled_by_the_other_references():
    scenario = workloads.closed_dense(0)[0].scenario
    snr_db = scenario.snr_grid[300]
    closed = measure.run_closed(
        workloads.Curve("c", replace(scenario, snr_grid=(snr_db,)))
    ).values[0][0]
    oracle = check.approx_oracle(scenario, snr_db)
    # A missed peak: the rescaled oracle vouches for the closed form.
    assert check._compare_point("c", scenario, snr_db, closed, 0.0) == (
        [], "oracle-off"
    )
    # Two agreeing oracles against a wrong value: mpmath decides.
    found, status = check._compare_point(
        "c", scenario, snr_db, 1.001 * closed, oracle
    )
    assert found and status == "problem"
    assert check._compare_point("c", scenario, snr_db, closed, 1.001 * oracle) == (
        [], "oracle-off"
    )


def test_reference_check_rules():
    def never(*_):
        raise AssertionError("no former gap to judge")

    ref = {"c": [[1.0, None, 3.0]]}
    assert check.check_against_reference({"c": [[1.0, None, 3.0]]}, ref, never) == []
    assert check.check_against_reference({"c": [[1.0, None, None]]}, ref, never)
    assert check.check_against_reference({"c": [[1.0 + 1e-9, None, 3.0]]}, ref, never)
    # A former gap that now has a value is judged against the oracle.
    curve = workloads.closed_dense(0)[0]
    value = measure.run_closed(
        workloads.Curve("c", replace(curve.scenario, snr_grid=(-19.9,)))
    ).values[0][0]
    judge = check.judge_against_oracle({"c": curve})
    table = {"c": [[1.0, value, 3.0]]}
    assert check.check_against_reference(table, ref, judge) == []
    table = {"c": [[1.0, 1.001 * value, 3.0]]}
    assert check.check_against_reference(table, ref, judge)


def test_same_seed_same_inputs_and_checksum_other_seed_differs():
    for generator in (workloads.closed_many, workloads.oracle_verify,
                      workloads.cli_cold):
        assert generator(3) == generator(3)
        assert generator(3) != generator(4)

    def digest(seed):
        curves = workloads.closed_many(seed)[:30]
        return check.checksum(
            {c.label: list(measure.run_closed(c).values) for c in curves}
        )

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


def test_known_failures_stay_in_the_workloads():
    labels = [c.label for c in workloads.closed_many(0)]
    for corner in workloads.corner_curves(workloads.MANY_GRID):
        assert corner.label in labels
    outcome = measure.run_closed(workloads.corner_curves(workloads.MANY_GRID)[2])
    assert outcome.errors == ("OverflowError",)
    assert outcome.failed == len(workloads.MANY_GRID)
    argvs = [c.argv for c in workloads.cli_cold(0)]
    assert any("3.668e-6" in argv for argv in argvs)
