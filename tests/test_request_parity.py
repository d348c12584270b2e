"""One sweep request, two doors: ``rcm simulate --json`` and ``POST /v1/sweeps``.

Both doors validate through :meth:`repro.sim.request.SweepRequest.from_mapping`
and execute through :func:`repro.sim.request.run_shard`, so the same request
must give the same result document: every key the service writes for a
shard appears in the CLI's file with the same value, rows included.  Each
door also rejects what the other one rejects.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.cli import main
from repro.dht import OVERLAY_CLASSES
from repro.dht.failures import FAILURE_MODEL_KINDS
from repro.service.app import ServiceConfig, SweepService
from repro.service.jobs import TERMINAL_STATES, JobManager
from repro.service.routes import Request
from repro.service.store import ResultStore
from repro.workloads import markov_trace

D, PAIRS, TRIALS, SEED = 6, 40, 2, 5
Q = [0.1, 0.4]
STEPS, LEAVE, REJOIN, REPAIR = 5, 0.1, 0.05, 2
STATIC = {"geometries": ["ring"], "d": D, "q": Q}


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    config = ServiceConfig(
        store_path=str(tmp_path_factory.mktemp("parity") / "cells.db"),
        pairs=PAIRS,
        trials=TRIALS,
        seed=SEED,
    )
    store = ResultStore.open(config.store_path)
    manager = JobManager(store, config)
    yield manager
    manager.close()
    store.close()


def service_document(jobs, body):
    """The single shard result document of a service job for ``body``."""
    job = jobs.submit(body)
    deadline = time.monotonic() + 60.0
    while job.state not in TERMINAL_STATES and time.monotonic() < deadline:
        time.sleep(0.01)
    assert job.state == "done", job.status_payload()["error"]
    (document,) = job.results_payload()["results"]
    return document


def cli_document(tmp_path, capsys, *flags):
    """The ``--json`` file of one ``rcm simulate`` run."""
    path = tmp_path / "out.json"
    assert main(["simulate", *flags, "--json", str(path)]) == 0
    capsys.readouterr()
    return json.loads(path.read_text(encoding="utf-8"))


def static_flags(geometry):
    return [
        "--geometry", geometry, "--d", str(D), "--q", *map(str, Q),
        "--pairs", str(PAIRS), "--trials", str(TRIALS), "--seed", str(SEED),
    ]


@pytest.mark.parametrize("model", FAILURE_MODEL_KINDS)
@pytest.mark.parametrize("geometry", sorted(OVERLAY_CLASSES))
def test_static_sweep_documents_agree(jobs, tmp_path, capsys, geometry, model):
    cli = cli_document(tmp_path, capsys, *static_flags(geometry), "--failure-model", model)
    service = service_document(
        jobs, {"geometries": [geometry], "d": D, "q": Q, "failure_models": [model]}
    )
    assert cli["rows"] == service["rows"]
    assert {key: cli[key] for key in service} == service


def test_adaptive_sweep_documents_agree(jobs, tmp_path, capsys):
    flags = [*static_flags("xor"), "--trials", "4", "--adaptive", "--ci-target", "0.1", "--min-trials", "1"]
    cli = cli_document(tmp_path, capsys, *flags)
    service = service_document(
        jobs,
        {
            "geometries": ["xor"], "d": D, "q": Q, "trials": 4,
            "adaptive": {"ci_target": 0.1, "min_trials": 1},
        },
    )
    assert cli["rows"] == service["rows"]
    assert {key: cli["adaptive"][key] for key in service["adaptive"]} == service["adaptive"]
    assert cli["adaptive"]["min_trials"] == 1 and cli["adaptive"]["max_trials"] == 4


@pytest.mark.parametrize("geometry", sorted(OVERLAY_CLASSES))
def test_churn_documents_agree(jobs, tmp_path, capsys, geometry):
    # One trace: saved to a file for the CLI, named by its generator for the service.
    trace_path = tmp_path / "trace.txt"
    markov_trace(
        2**D, STEPS, leave_probability=LEAVE, rejoin_probability=REJOIN, seed=SEED
    ).save(trace_path)
    cli = cli_document(
        tmp_path, capsys,
        "--geometry", geometry, "--d", str(D), "--pairs", str(PAIRS), "--seed", str(SEED),
        "--churn-trace", str(trace_path), "--churn-repair-every", str(REPAIR),
    )
    churn = {
        "generator": "markov", "steps": STEPS, "leave_probability": LEAVE,
        "rejoin_probability": REJOIN, "repair_every": REPAIR,
    }
    service = service_document(jobs, {"geometries": [geometry], "d": D, "churn": churn})
    assert len(service["rows"]) == STEPS
    assert cli["rows"] == service["rows"]
    assert service["churn"] == churn and cli["churn"] == {"repair_every": REPAIR}
    shared = {key: value for key, value in service.items() if key != "churn"}
    assert {key: cli[key] for key in shared} == shared


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--min-trials", "5"], "--min-trials requires --adaptive"),
        (["--max-trials", "4"], "--max-trials requires --adaptive"),
        (["--d", "25"], "--d must be at most 24, got 25"),
        (["--q", "1.5"], "--q values must lie in [0, 1], got 1.5"),
    ],
)
def test_cli_rejections_exit_2_with_one_line(capsys, flags, message):
    command = ["simulate", "--geometry", "xor", "--d", "6", "--q", "0.3", *flags]
    assert main(command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "body, message",
    [
        ({**STATIC, "geometries": ["pastry"]}, "unknown geometry 'pastry'"),
        ({**STATIC, "failure_models": ["meteor"]}, "unknown failure model 'meteor'"),
        ({**STATIC, "q": [1.5]}, "must lie in [0, 1]"),
        ({**STATIC, "q": [-0.1]}, "must lie in [0, 1]"),
        ({**STATIC, "d": 25}, "'d' must be at most 24"),
        ({**STATIC, "churn": {"generator": "markov", "steps": 3}}, "'q' cannot be combined with 'churn'"),
    ],
)
def test_service_rejects_semantic_errors_with_400(tmp_path, body, message):
    config = ServiceConfig(store_path=str(tmp_path / "cells.db"), port=0)
    with SweepService(config) as service:
        response = asyncio.run(service.dispatch(Request("POST", "/v1/sweeps", body=body)))
        assert service.jobs.jobs() == []
    assert response.status == 400
    assert message in response.payload["error"]
