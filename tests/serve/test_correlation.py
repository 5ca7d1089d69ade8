"""End-to-end request correlation across every telemetry pool.

The PR-7 contract: one ``request_id`` minted at the edge must be
retrievable — unchanged — from the trace store, the metric exemplars,
the flight recorder and the audit ledger, no matter which worker
backend served the request.  The process backend is the hard case (the
id has to survive pickling into the worker and the telemetry piggyback
back out), so every assertion here is parametrised over all three.
"""

from __future__ import annotations

import pytest

from repro.config import ServingConfig
from repro.obs import (
    AuditLedger,
    FlightRecorder,
    MetricsRegistry,
    Profiler,
    current_request_id,
    set_audit_ledger,
    set_flight_recorder,
    set_registry,
)
from repro.serve import AuthenticationRequest, BatchAuthenticator

from .test_executor import run_guarded

BACKENDS = ("serial", "thread", "process")


def serve_correlated(bundle, backend, requests):
    """Serve ``requests`` with every telemetry pool attached.

    Returns ``(responses, profiler traces, registry, recorder, ledger
    entries)`` from one batch under a fresh registry/ledger/recorder.
    """
    registry = MetricsRegistry()
    previous_registry = set_registry(registry)
    recorder = FlightRecorder()
    previous_recorder = set_flight_recorder(recorder)
    try:
        with Profiler() as profiler:
            config = ServingConfig(backend=backend, max_workers=2)
            with BatchAuthenticator(bundle, config) as server:
                responses = run_guarded(
                    lambda: server.authenticate_batch(requests)
                )
    finally:
        set_registry(previous_registry)
        set_flight_recorder(previous_recorder)
    return responses, profiler.traces, registry, recorder


@pytest.mark.parametrize("backend", BACKENDS)
class TestCrossBackendCorrelation:
    def test_one_id_spans_traces_audit_flight_and_exemplars(
        self, enrolled, bundle, backend, tmp_path
    ):
        _, attempt = enrolled
        requests = [
            AuthenticationRequest(recordings=tuple(attempt))
            for _ in range(2)
        ]
        ids = {r.request_id for r in requests}
        assert len(ids) == 2
        assert all(rid.startswith("req-") for rid in ids)

        ledger = AuditLedger(tmp_path / "audit.jsonl")
        set_audit_ledger(ledger)
        try:
            responses, traces, registry, recorder = serve_correlated(
                bundle, backend, requests
            )
        finally:
            set_audit_ledger(None)

        # Responses echo the ids.
        assert {r.request_id for r in responses} == ids

        # Trace store: each request's authenticate trace carries its id
        # (on the process backend the trace crossed a pickle boundary).
        trace_ids = {t.request_id for t in traces}
        assert ids <= trace_ids

        # Audit ledger: exactly one entry per request, chain intact.
        entries = ledger.entries()
        assert {e["request_id"] for e in entries} == ids
        assert len(entries) == len(requests)
        assert ledger.verify_chain().ok
        for entry in entries:
            assert entry["kind"] == "serve"
            assert entry["backend"] == backend
            assert entry["decision"] in ("accept", "reject")
            assert entry["svdd_scores"]
            assert "git_sha" in entry["environment"]

        # Flight recorder: the black-box dump joins on the same ids.
        dump = recorder.to_dict()
        assert {r["request_id"] for r in dump["requests"]} == ids

        # Metric exemplars: the serving-latency histogram points back at
        # one of this batch's requests.
        (family,) = [
            f
            for f in registry.to_dict()["metrics"]
            if f["name"] == "echoimage_serve_request_latency_seconds"
        ]
        exemplar = family["samples"][0]["exemplar"]
        assert exemplar["request_id"] in ids

    def test_caller_chosen_ids_survive_verbatim(
        self, enrolled, bundle, backend, tmp_path
    ):
        _, attempt = enrolled
        ledger = AuditLedger(tmp_path / "audit.jsonl")
        set_audit_ledger(ledger)
        try:
            responses, traces, _, _ = serve_correlated(
                bundle,
                backend,
                [AuthenticationRequest("ticket-4711", tuple(attempt))],
            )
        finally:
            set_audit_ledger(None)
        assert responses[0].request_id == "ticket-4711"
        assert "ticket-4711" in {t.request_id for t in traces}
        assert ledger.query(request_id="ticket-4711")


class TestStandaloneEntryPoints:
    def test_pipeline_authenticate_mints_and_reports_an_id(self, enrolled):
        pipeline, attempt = enrolled
        result = pipeline.authenticate(attempt)
        assert result.request_id is not None
        assert result.request_id.startswith("req-")

    def test_pipeline_authenticate_joins_an_ambient_scope(self, enrolled):
        from repro.obs import correlation_scope

        pipeline, attempt = enrolled
        with correlation_scope("req-ambient") as rid:
            result = pipeline.authenticate(attempt)
        assert result.request_id == rid

    def test_no_ambient_id_outside_scopes(self):
        assert current_request_id() is None
