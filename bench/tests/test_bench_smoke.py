"""Self-test of the benchmark at the ``--smoke`` size (d=10, two timed ops).

Run from the root of the repository with ``python -m pytest bench/tests``.
"""

import argparse
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import common  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

SEED = "1"
#: Every layer the traced run wraps; each must record at least one span.
LAYERS = {
    "cli", "dht", "dht.failures", "sim.sampling", "sim.engine", "sim.backends",
    "sim.churn", "sim.adaptive", "service.app", "service.jobs", "service.store",
}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def run_bench(*arguments):
    process = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke", "--seed", SEED, *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert process.returncode == 0, process.stderr
    lines = process.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def untraced():
    return run_bench()


@pytest.fixture(scope="module")
def traced():
    return run_bench("--trace", "1")


def digests(detail):
    return {r["workload"]: r["digests"] for r in detail["runs"]}


@pytest.mark.parametrize("mode, kind", [("untraced", "end_to_end"), ("traced", "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(mode, kind, request):
    detail, final = request.getfixturevalue(mode)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    assert [r["workload"] for r in detail["runs"]] == list(common.WORKLOADS)
    for workload in common.WORKLOADS:
        for metric in SPEC[kind]:
            entry = final["metrics"][f"{workload}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))


def test_same_seed_gives_same_digests(untraced):
    again, _ = run_bench()
    assert digests(again) == digests(untraced[0])


def test_traced_digests_equal_untraced(untraced, traced):
    # A traced run also records its untraced reference ops, under other keys.
    produced = digests(traced[0])
    for workload, expected in digests(untraced[0]).items():
        assert {key: produced[workload].get(key) for key in expected} == expected


def test_traced_spans_resolve_and_have_non_negative_self_time(traced):
    layers = set()
    for workload in common.WORKLOADS:
        with open(os.path.join(common.OUT_DIR, "trace", f"{workload}.spans.json")) as handle:
            spans = json.load(handle)
        ids = {span["id"] for span in spans}
        assert spans
        for span in spans:
            assert span["parent"] == 0 or span["parent"] in ids, span
            assert span["self"] >= 0.0, span
            assert span["end"] >= span["start"], span
        layers |= {span["layer"] for span in spans}
    assert LAYERS <= layers


def test_corrupted_row_counts_as_failed_op(tmp_path):
    args = argparse.Namespace(workload="sweep-d16", seed=1, seconds=0.0, trace=0, smoke=True)
    ctx = worker.Context(args, str(tmp_path))
    workload = worker.SweepWorkload(ctx)
    original = workload.op

    def corrupted(index, inputs):
        rows = original(index, inputs)
        if index == 1:
            rows["tree"][3]["attempts"] -= 1
        return rows

    workload.op = corrupted
    ops = worker.run_sequential(ctx, workload)
    assert [bool(op["errors"]) for op in ops] == [False, True, False]


def test_run_length_is_fixed_by_the_spec():
    assert run.parse_arguments(["--seconds", str(SPEC["run_seconds"])], SPEC).seconds == SPEC["run_seconds"]
    with pytest.raises(SystemExit):
        run.parse_arguments(["--seconds", str(SPEC["run_seconds"] + 1)], SPEC)


def test_golden_mismatch_counts_as_failed_op():
    result = {"ops": [{"key": "0", "digest": "a", "errors": []}, {"key": "1", "digest": "b", "errors": []}]}
    golden = {"smoke": {SEED: {"sweep-d16": {"0": "a", "1": "c", "2": "d"}}}}
    errors = run.check_golden(result, golden, "sweep-d16", int(SEED), "smoke")
    assert [bool(op["errors"]) for op in result["ops"]] == [False, True]
    assert errors == ["op 2 recorded in bench/golden.json did not run"]
