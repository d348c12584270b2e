"""End-to-end tests of the sweep service (``rcm serve``).

The smoke tests run the real stdlib asyncio HTTP server on an ephemeral
port and speak real HTTP/1.1 through ``http.client``; the cache tests
prove the acceptance property — a resubmitted grid performs **zero**
kernel executions and returns bit-identical results — by failing the
kernel entry points outright on the second service instance.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import http.client
import json
import logging
import multiprocessing
import threading
import time
import weakref

import pytest

from repro.exceptions import InvalidParameterError, ServiceError
from repro.service.app import ServiceConfig, SweepService, create_asgi_app
from repro.service.routes import Request
from repro.sim.backends import default_backend_name
from repro.sim.engine import SweepRunner

#: Small but real sweep settings shared by the whole module.
PAIRS, TRIALS, SEED = 40, 2, 11
GRID = {"geometries": ["ring"], "d": 6, "q": [0.1, 0.3]}


def _config(store_path, **overrides) -> ServiceConfig:
    settings = dict(
        store_path=str(store_path), port=0, pairs=PAIRS, trials=TRIALS, seed=SEED
    )
    settings.update(overrides)
    return ServiceConfig(**settings)


@contextlib.contextmanager
def running_service(store_path, faults=None, **overrides):
    """Run a real SweepService on an ephemeral port; yields ``(port, service)``."""
    service = SweepService(_config(store_path, **overrides), faults=faults)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, name="rcm-test-server", daemon=True)
    thread.start()
    server = asyncio.run_coroutine_threadsafe(service.start_server(), loop).result(timeout=10)
    try:
        yield server.sockets[0].getsockname()[1], service
    finally:
        async def _shutdown():
            server.close()
            await server.wait_closed()

        asyncio.run_coroutine_threadsafe(_shutdown(), loop).result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()
        service.close()


def request(port, method, path, body=None, raw_body=None):
    """One HTTP request; returns ``(status, parsed-or-text body)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = raw_body if raw_body is not None else (
            json.dumps(body).encode() if body is not None else None
        )
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        raw = response.read()
        if response.headers.get_content_type() == "application/json":
            return response.status, json.loads(raw)
        return response.status, raw.decode()
    finally:
        connection.close()


def wait_for_state(port, job_id, states=("done", "failed"), timeout=60.0):
    """Poll the status route until the job settles; returns the status document."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload = request(port, "GET", f"/v1/jobs/{job_id}")
        assert status == 200, payload
        if payload["state"] in states:
            return payload
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not settle within {timeout}s")


def direct_rows():
    """The reference: the same grid through SweepRunner, no service, no store."""
    with SweepRunner(pairs=PAIRS, replicates=TRIALS, base_seed=SEED) as runner:
        return runner.sweep(GRID["geometries"][0], GRID["d"], GRID["q"]).as_rows()


#: Sample-name suffixes the Prometheus text format allows per family type.
SAMPLE_SUFFIXES = {
    "counter": ("",),
    "gauge": ("",),
    "summary": ("", "_count", "_sum"),
    "histogram": ("_bucket", "_count", "_sum"),
}


def prometheus_samples(text):
    """``(family, type, sample name)`` of every sample line in exposition ``text``.

    Checks the layout rules on the way: each family has one HELP and one
    TYPE line, and its samples follow them as one group.
    """
    helped, typed, samples = set(), {}, []
    family = None
    for line in text.splitlines():
        if line.startswith("# HELP "):
            name = line.split()[2]
            assert name not in helped, f"second HELP for {name}"
            helped.add(name)
        elif line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            assert name not in typed, f"second TYPE for {name}"
            assert name in helped, f"TYPE before HELP for {name}"
            typed[name], family = kind, name
        elif line:
            sample = line.split("{")[0].split()[0]
            assert family is not None and sample.startswith(family), (
                f"sample {sample} outside its family's group (current: {family})"
            )
            samples.append((family, typed[family], sample))
    return samples


class TestEndToEndSmoke:
    def test_submit_poll_results_matches_sweeprunner_bit_for_bit(self, tmp_path):
        with running_service(tmp_path / "cells.db") as (port, _service):
            status, accepted = request(port, "POST", "/v1/sweeps", body=GRID)
            assert status == 202
            job_id = accepted["job_id"]
            assert accepted["links"]["status"] == f"/v1/jobs/{job_id}"

            final = wait_for_state(port, job_id)
            assert final["state"] == "done"
            assert final["cells"] == {"total": 4, "done": 4, "cached": 0, "computed": 4}
            shards = final["shards"]
            assert shards["total"] == 1 and shards["done"] == 1
            assert shards["failed"] == 0 and shards["cancelled"] == 0
            assert shards["retries"] == 0
            (shard_state,) = shards["states"]
            assert shard_state["state"] == "done"
            assert shard_state["attempts"] == 1
            assert shard_state["error"] is None

            status, results = request(port, "GET", f"/v1/jobs/{job_id}/results")
            assert status == 200
            (shard,) = results["results"]
            assert shard["geometry"] == "ring"
            assert shard["failure_model"] == "uniform"
            assert shard["rows"] == direct_rows()

    def test_job_listing_and_health_and_metrics(self, tmp_path):
        with running_service(tmp_path / "cells.db") as (port, _service):
            _, accepted = request(port, "POST", "/v1/sweeps", body=GRID)
            wait_for_state(port, accepted["job_id"])

            status, listing = request(port, "GET", "/v1/jobs")
            assert status == 200
            assert [job["job_id"] for job in listing["jobs"]] == [accepted["job_id"]]

            status, health = request(port, "GET", "/healthz")
            assert status == 200
            assert health["status"] == "ok"
            assert health["jobs"]["done"] == 1
            assert health["store"]["cells"] == 4

            status, metrics = request(port, "GET", "/metrics")
            assert status == 200
            assert 'rcm_jobs{state="done"} 1' in metrics
            assert "rcm_cells_computed_total 4" in metrics
            assert "rcm_store_cells 4" in metrics

    def test_metrics_text_is_valid_prometheus_exposition(self, tmp_path):
        with running_service(tmp_path / "cells.db") as (port, _service):
            _, accepted = request(port, "POST", "/v1/sweeps", body=GRID)
            wait_for_state(port, accepted["job_id"])
            status, metrics = request(port, "GET", "/metrics")
        assert status == 200
        assert 'rcm_job_duration_seconds_count{state="done"} 1' in metrics
        for family, kind, sample in prometheus_samples(metrics):
            assert sample[len(family):] in SAMPLE_SUFFIXES[kind], (family, kind, sample)

    def test_stream_replays_shards_then_ends(self, tmp_path):
        with running_service(tmp_path / "cells.db") as (port, _service):
            _, accepted = request(port, "POST", "/v1/sweeps", body=GRID)
            status, ndjson = request(port, "GET", f"/v1/jobs/{accepted['job_id']}/stream")
            assert status == 200
            events = [json.loads(line) for line in ndjson.splitlines()]
            assert [event["event"] for event in events] == ["shard", "end"]
            assert events[0]["result"]["rows"] == direct_rows()
            assert events[1]["status"]["state"] == "done"

    def test_openapi_document_matches_the_route_table(self, tmp_path):
        from repro.service.apidocs import generate_openapi
        from repro.service.routes import build_routes

        with running_service(tmp_path / "cells.db") as (port, _service):
            status, document = request(port, "GET", "/openapi.json")
        assert status == 200
        assert document == generate_openapi(build_routes(None))


class TestCacheSemantics:
    def test_resubmitted_grid_computes_zero_cells(self, tmp_path):
        store_path = tmp_path / "cells.db"
        with running_service(store_path) as (port, _service):
            _, first = request(port, "POST", "/v1/sweeps", body=GRID)
            wait_for_state(port, first["job_id"])
            _, second = request(port, "POST", "/v1/sweeps", body=GRID)
            final = wait_for_state(port, second["job_id"])
        assert final["cells"]["computed"] == 0
        assert final["cells"]["cached"] == 4

    def test_fresh_service_serves_the_grid_with_zero_kernel_executions(
        self, tmp_path, monkeypatch
    ):
        """The acceptance property: a new service instance (fresh process
        stand-in) on the same store must answer the identical grid without
        executing a single kernel, bit-identically."""
        store_path = tmp_path / "cells.db"
        with running_service(store_path) as (port, _service):
            _, accepted = request(port, "POST", "/v1/sweeps", body=GRID)
            wait_for_state(port, accepted["job_id"])
            _, results = request(port, "GET", f"/v1/jobs/{accepted['job_id']}/results")
        first_rows = results["results"][0]["rows"]
        assert first_rows == direct_rows()

        def _no_kernels(self, pending):
            raise AssertionError(f"kernel execution attempted for {len(pending)} cells")

        monkeypatch.setattr(SweepRunner, "_run_groups", _no_kernels)

        with SweepService(_config(store_path)) as service:
            job = service.jobs.submit(GRID)
            deadline = time.monotonic() + 60
            while job.state not in ("done", "failed") and time.monotonic() < deadline:
                time.sleep(0.05)
            status = job.status_payload()
            assert status["state"] == "done", status["error"]
            assert status["cells"]["computed"] == 0
            assert status["cells"]["cached"] == 4
            assert job.results_payload()["results"][0]["rows"] == first_rows


class TestChurnSubmissions:
    """Churn sweeps: one trace-driven shard per geometry, no static q grid."""

    BODY = {
        "geometries": ["ring", "xor"],
        "d": 6,
        "churn": {
            "generator": "markov",
            "steps": 5,
            "leave_probability": 0.1,
            "rejoin_probability": 0.05,
            "pairs_per_step": 30,
            "repair_every": 2,
        },
    }

    def test_churn_job_runs_one_shard_per_geometry(self, tmp_path):
        with running_service(tmp_path / "cells.db") as (port, _service):
            status, accepted = request(port, "POST", "/v1/sweeps", body=self.BODY)
            assert status == 202
            final = wait_for_state(port, accepted["job_id"])
            assert final["state"] == "done"
            assert final["cells"]["total"] == 10  # 2 geometries x 5 steps
            assert final["cells"]["done"] == 10

            status, results = request(
                port, "GET", f"/v1/jobs/{accepted['job_id']}/results"
            )
            assert status == 200
            shards = results["results"]
            assert sorted(shard["geometry"] for shard in shards) == ["ring", "xor"]
            for shard in shards:
                assert shard["failure_model"] == "churn"
                assert shard["backend"] == default_backend_name()  # resolved, not None
                assert shard["churn"]["generator"] == "markov"
                assert len(shard["rows"]) == 5
                assert all(row["effective_q"] is None for row in shard["rows"])
                assert all("usable_fraction" in row for row in shard["rows"])

    def test_churn_results_are_deterministic_across_submissions(self, tmp_path):
        payloads = []
        for run in range(2):
            with running_service(tmp_path / f"cells-{run}.db") as (port, _service):
                _, accepted = request(port, "POST", "/v1/sweeps", body=self.BODY)
                wait_for_state(port, accepted["job_id"])
                _, results = request(
                    port, "GET", f"/v1/jobs/{accepted['job_id']}/results"
                )
                payloads.append(
                    sorted(results["results"], key=lambda shard: shard["geometry"])
                )
        assert payloads[0] == payloads[1]

    def test_pareto_generator_accepted(self, tmp_path):
        body = {
            "geometries": ["ring"],
            "d": 6,
            "churn": {"generator": "pareto", "steps": 3, "mean_offline": 8.0},
        }
        with running_service(tmp_path / "cells.db") as (port, _service):
            status, accepted = request(port, "POST", "/v1/sweeps", body=body)
            assert status == 202
            final = wait_for_state(port, accepted["job_id"])
            assert final["state"] == "done"
            assert final["cells"]["total"] == 3

    def test_invalid_churn_bodies_rejected_400(self, tmp_path):
        with running_service(tmp_path / "cells.db") as (port, _service):
            for bad_churn in (
                {"generator": "weibull", "steps": 3},  # unknown generator
                {"generator": "markov"},  # missing steps
                {"generator": "markov", "steps": 3, "surprise": 1},  # unknown key
                {"generator": "pareto", "steps": 3, "shape": 1},  # shape must exceed 1
            ):
                body = {"geometries": ["ring"], "d": 6, "churn": bad_churn}
                status, payload = request(port, "POST", "/v1/sweeps", body=body)
                assert status == 400, bad_churn
                assert "invalid sweep request" in payload["error"]

    @pytest.mark.parametrize(
        "generator, parameter, value, other",
        [("markov", "shape", 9.0, "pareto"), ("pareto", "leave_probability", 0.5, "markov")],
    )
    def test_the_other_generators_parameter_rejected_400(
        self, tmp_path, generator, parameter, value, other
    ):
        churn = {"generator": generator, "steps": 3, parameter: value}
        with running_service(tmp_path / "cells.db") as (port, _service):
            status, payload = request(
                port, "POST", "/v1/sweeps", body={"geometries": ["ring"], "d": 5, "churn": churn}
            )
            assert status == 400
            assert (
                f"'churn.{parameter}' is a {other} parameter; "
                f"the {generator} generator does not take it"
            ) in payload["error"]

    def test_missing_q_without_churn_rejected_400(self, tmp_path):
        with running_service(tmp_path / "cells.db") as (port, _service):
            status, payload = request(
                port, "POST", "/v1/sweeps", body={"geometries": ["ring"], "d": 6}
            )
            assert status == 400
            assert "'q' is required unless 'churn' is given" in payload["error"]


class TestErrorPaths:
    def test_semantically_invalid_grid_fails_the_job_with_409_results(self, tmp_path):
        from repro.service.faults import FaultRegistry

        faults = FaultRegistry()
        faults.arm("shard-execute", "raise-n", times=10)
        with running_service(
            tmp_path / "cells.db", faults, shard_retries=1, retry_backoff=0.001
        ) as (port, _service):
            # A semantic error is answered 400 at submission; no job is made.
            status, payload = request(
                port, "POST", "/v1/sweeps", body={**GRID, "geometries": ["pastry"]}
            )
            assert status == 400
            assert "invalid sweep request" in payload["error"]
            assert "unknown geometry 'pastry'" in payload["error"]
            assert request(port, "GET", "/v1/jobs")[1]["jobs"] == []

            # A job whose every shard fails (retries exhausted) answers 409 on results.
            status, accepted = request(port, "POST", "/v1/sweeps", body=GRID)
            assert status == 202
            final = wait_for_state(port, accepted["job_id"])
            assert final["state"] == "failed"
            assert "InjectedFault" in final["error"]
            assert final["shards"]["states"][0]["attempts"] == 2

            status, payload = request(port, "GET", f"/v1/jobs/{accepted['job_id']}/results")
            assert status == 409
            assert "InjectedFault" in payload["error"]

    def test_structurally_invalid_body_is_rejected_400(self, tmp_path):
        with running_service(tmp_path / "cells.db") as (port, _service):
            for bad in (
                {"geometries": [], "d": 6, "q": [0.1]},
                {"geometries": ["ring"], "q": [0.1]},
                {"geometries": ["ring"], "d": 6, "q": [0.1], "unknown_field": 1},
            ):
                status, payload = request(port, "POST", "/v1/sweeps", body=bad)
                assert status == 400, bad
                assert "invalid sweep request" in payload["error"]

    def test_malformed_json_body_is_rejected_400(self, tmp_path):
        with running_service(tmp_path / "cells.db") as (port, _service):
            status, payload = request(port, "POST", "/v1/sweeps", raw_body=b"{not json")
            assert status == 400
            assert "not valid JSON" in payload["error"]

    def test_unknown_job_and_route_and_method(self, tmp_path):
        with running_service(tmp_path / "cells.db") as (port, _service):
            assert request(port, "GET", "/v1/jobs/nope")[0] == 404
            assert request(port, "GET", "/v1/nothing")[0] == 404
            assert request(port, "POST", "/healthz")[0] == 405

    def test_results_of_a_running_job_answer_202(self, tmp_path):
        with running_service(tmp_path / "cells.db") as (port, service):
            job = service.jobs.submit(GRID)
            status, payload = request(port, "GET", f"/v1/jobs/{job.job_id}/results")
            # 202 while queued/running, 200 once done - never an error.
            assert status in (200, 202)
            wait_for_state(port, job.job_id)

    def test_handler_crash_answers_500_and_logs_the_traceback(self, tmp_path, caplog):
        async def crash(request):
            raise RuntimeError("secret detail")

        with SweepService(_config(tmp_path / "cells.db")) as service:
            service.routes = [
                dataclasses.replace(route, handler=crash) if route.name == "healthz" else route
                for route in service.routes
            ]
            with caplog.at_level(logging.ERROR, logger="repro.service"):
                response = asyncio.run(service.dispatch(Request("GET", "/healthz")))
        assert response.status == 500
        assert response.payload == {"error": "internal error: RuntimeError"}
        (record,) = [r for r in caplog.records if r.name == "repro.service"]
        assert "GET /healthz" in record.getMessage()
        assert record.exc_info is not None and "secret detail" in caplog.text

    def test_submissions_after_close_are_refused(self, tmp_path):
        service = SweepService(_config(tmp_path / "cells.db"))
        service.close()
        with pytest.raises(ServiceError, match="shutting down"):
            service.jobs.submit(GRID)


class TestAsgiAdapter:
    """The ASGI 3 frontend, driven directly (no ASGI server dependency)."""

    @staticmethod
    def _call(app, method, path, body=None):
        sent = []

        async def receive():
            return {"type": "http.request", "body": body or b"", "more_body": False}

        async def send(message):
            sent.append(message)

        scope = {"type": "http", "method": method, "path": path, "query_string": b""}
        asyncio.run(app(scope, receive, send))
        status = sent[0]["status"]
        payload = b"".join(message.get("body", b"") for message in sent[1:])
        return status, payload

    def test_health_and_submit_through_asgi(self, tmp_path):
        with SweepService(_config(tmp_path / "cells.db")) as service:
            app = create_asgi_app(service)
            status, payload = self._call(app, "GET", "/healthz")
            assert status == 200
            assert json.loads(payload)["status"] == "ok"

            status, payload = self._call(
                app, "POST", "/v1/sweeps", body=json.dumps(GRID).encode()
            )
            assert status == 202
            job_id = json.loads(payload)["job_id"]
            deadline = time.monotonic() + 60
            while service.jobs.get(job_id).state not in ("done", "failed"):
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert service.jobs.get(job_id).state == "done"

    def test_asgi_rejects_malformed_json(self, tmp_path):
        with SweepService(_config(tmp_path / "cells.db")) as service:
            app = create_asgi_app(service)
            status, payload = self._call(app, "POST", "/v1/sweeps", body=b"{broken")
            assert status == 400
            assert "not valid JSON" in json.loads(payload)["error"]

    def test_asgi_lifespan_protocol(self, tmp_path):
        with SweepService(_config(tmp_path / "cells.db")) as service:
            app = create_asgi_app(service)
            messages = iter(
                [{"type": "lifespan.startup"}, {"type": "lifespan.shutdown"}]
            )
            sent = []

            async def receive():
                return next(messages)

            async def send(message):
                sent.append(message)

            asyncio.run(app({"type": "lifespan"}, receive, send))
            assert [message["type"] for message in sent] == [
                "lifespan.startup.complete",
                "lifespan.shutdown.complete",
            ]


class TestAdaptiveSubmissions:
    """Adaptive trial allocation through the service tier."""

    BODY = {
        "geometries": ["ring"],
        "d": 6,
        "q": [0.1, 0.3],
        "adaptive": {"ci_target": 0.2, "min_trials": 1},
    }

    def direct_adaptive(self):
        from repro.sim.adaptive import AdaptiveConfig

        with SweepRunner(pairs=PAIRS, replicates=TRIALS, base_seed=SEED) as runner:
            sweep = runner.sweep(
                "ring", 6, [0.1, 0.3],
                adaptive=AdaptiveConfig(ci_target=0.2, min_trials=1),
            )
            return sweep.as_rows(), runner.last_adaptive_report

    def test_adaptive_job_reports_the_allocation(self, tmp_path):
        reference_rows, reference_report = self.direct_adaptive()
        with running_service(tmp_path / "cells.db") as (port, _service):
            status, accepted = request(port, "POST", "/v1/sweeps", body=self.BODY)
            assert status == 202
            final = wait_for_state(port, accepted["job_id"])
            assert final["state"] == "done"

            status, results = request(
                port, "GET", f"/v1/jobs/{accepted['job_id']}/results"
            )
            assert status == 200
            (shard,) = results["results"]
            assert shard["rows"] == reference_rows
            adaptive = shard["adaptive"]
            assert adaptive["trials_allocated"] == reference_report.trials_allocated
            assert adaptive["trials_uniform"] == 2 * TRIALS
            assert adaptive["trials_saved"] == reference_report.trials_saved
            assert adaptive["rounds"] == reference_report.rounds
            assert adaptive["points"] == reference_report.as_rows()

            status, metrics = request(port, "GET", "/metrics")
            assert status == 200
            assert (
                f"rcm_adaptive_trials_saved_total {reference_report.trials_saved}"
                in metrics
            )
            assert "rcm_cells_requested_total" in metrics
            assert "rcm_store_hits_total" in metrics

    def test_adaptive_resubmission_is_served_from_the_cache(self, tmp_path):
        with running_service(tmp_path / "cells.db") as (port, _service):
            _, first = request(port, "POST", "/v1/sweeps", body=self.BODY)
            wait_for_state(port, first["job_id"])
            _, first_results = request(port, "GET", f"/v1/jobs/{first['job_id']}/results")

            _, second = request(port, "POST", "/v1/sweeps", body=self.BODY)
            final = wait_for_state(port, second["job_id"])
            _, second_results = request(port, "GET", f"/v1/jobs/{second['job_id']}/results")
        assert final["cells"]["computed"] == 0
        assert second_results["results"] == first_results["results"]

    def test_invalid_adaptive_bodies_rejected_400(self, tmp_path):
        with running_service(tmp_path / "cells.db") as (port, _service):
            for bad_adaptive in (
                {"ci_target": 1.5},  # out of schema range
                {"min_trials": 2},  # missing ci_target
                {"ci_target": 0.1, "surprise": 1},  # unknown key
                {"ci_target": 0.1, "min_trials": 3, "max_trials": 2},  # semantic
            ):
                body = {**self.BODY, "adaptive": bad_adaptive}
                status, payload = request(port, "POST", "/v1/sweeps", body=body)
                assert status == 400, bad_adaptive
                assert "invalid sweep request" in payload["error"]

    def test_adaptive_cannot_be_combined_with_churn(self, tmp_path):
        body = {
            "geometries": ["ring"],
            "d": 6,
            "adaptive": {"ci_target": 0.1},
            "churn": {"generator": "markov", "steps": 3},
        }
        with running_service(tmp_path / "cells.db") as (port, _service):
            status, payload = request(port, "POST", "/v1/sweeps", body=body)
            assert status == 400
            assert "cannot be combined with 'churn'" in payload["error"]


class TestServiceConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("pairs", 0),
            ("trials", 0),
            ("workers", 0),
            ("max_jobs", 0),
            ("max_retained_jobs", 0),
            ("seed", -1),
            ("max_queued", -1),
            ("shard_retries", -1),
            ("retry_backoff", -0.5),
            ("rate_limit", -1.0),
            ("job_ttl", -1.0),
            ("shard_timeout", -1.0),
            ("request_timeout", -1.0),
            ("drain_timeout", -1.0),
        ],
    )
    def test_unusable_setting_is_rejected(self, tmp_path, field, value):
        with pytest.raises(InvalidParameterError, match=f"^{field} must"):
            _config(tmp_path / "cells.db", **{field: value})

    def test_unknown_backend_is_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="unknown kernel backend 'nope'"):
            _config(tmp_path / "cells.db", backend="nope")

    def test_zero_and_none_settings_are_accepted(self, tmp_path):
        zeros = dict.fromkeys(
            (
                "seed",
                "max_queued",
                "shard_retries",
                "retry_backoff",
                "rate_limit",
                "job_ttl",
                "shard_timeout",
                "request_timeout",
                "drain_timeout",
            ),
            0,
        )
        _config(tmp_path / "cells.db", **zeros)
        _config(tmp_path / "cells.db", rate_limit=None, job_ttl=None, shard_timeout=None)


class TestShardRunnerLifecycle:
    def test_pooled_job_leaves_no_runner_or_worker_process_behind(self, tmp_path, monkeypatch):
        """A shard whose groups fan out over a worker pool returns the direct
        runner's rows, and once its job is done neither the runner built
        for it nor the pool's processes outlive it, though the service
        keeps running."""
        from repro.service import jobs as jobs_module

        built, pool_sizes = [], []

        class RecordingRunner(SweepRunner):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                built.append(weakref.ref(self))

            def _ensure_pool(self, task_count):
                pool = super()._ensure_pool(task_count)
                pool_sizes.append(self._pool_size)
                return pool

        monkeypatch.setattr(jobs_module, "SweepRunner", RecordingRunner)
        with SweepService(_config(tmp_path / "cells.db", workers=2)) as service:
            job = service.jobs.submit(GRID)
            deadline = time.monotonic() + 60
            while job.state not in ("done", "failed") and time.monotonic() < deadline:
                time.sleep(0.02)
            assert job.state == "done", job.status_payload()["error"]
            assert pool_sizes == [2]  # TRIALS groups: the pool really ran
            gc.collect()
            assert built and all(ref() is None for ref in built)
            assert multiprocessing.active_children() == []
            assert job.results_payload()["results"][0]["rows"] == direct_rows()
