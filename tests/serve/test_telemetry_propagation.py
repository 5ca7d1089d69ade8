"""Cross-worker telemetry propagation and the serving flight recorder.

The process backend runs pipelines in worker processes whose metric
increments and traces would otherwise vanish with the worker.  These
tests pin the propagation contract: after a batch, the parent registry
holds the *same totals* no matter which backend served it, worker traces
replay through the parent's sinks, and failed batches leave a black-box
flight dump behind.  The sink format pin at the end fixes, for each
outcome (ok, degraded, early exit, timeout, error, shed), exactly what
the audit ledger, flight recorder, security sentinel and capture store
record.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.config import ServingConfig
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    Profiler,
    SecuritySentinel,
    set_flight_recorder,
    set_registry,
)
from repro.serve import (
    STATUS_OK,
    STATUS_TIMEOUT,
    AuthenticationRequest,
    BatchAuthenticator,
)

from .test_executor import make_requests, run_guarded

#: Counter families whose totals must be backend-independent.  Includes
#: both serve-level counters (recorded in the parent) and pipeline-level
#: ones (recorded inside workers and shipped back as deltas).
COMPARED_COUNTERS = (
    "echoimage_serve_requests_total",
    "echoimage_auth_attempts_total",
    "echoimage_auth_decisions_total",
    "echoimage_distance_estimates_total",
)

#: Pipeline histograms with deterministic observations (no wall time).
COMPARED_HISTOGRAMS = (
    "echoimage_auth_score",
    "echoimage_distance_echo_snr_db",
    "echoimage_feature_embedding_norm",
)


def run_batch(bundle, backend, requests):
    """Serve ``requests`` on ``backend`` under a fresh registry.

    Returns (responses, registry with the run's totals merged in).
    """
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        config = ServingConfig(backend=backend, max_workers=2)
        with BatchAuthenticator(bundle, config) as server:
            responses = run_guarded(
                lambda: server.authenticate_batch(requests)
            )
    finally:
        set_registry(previous)
    return responses, registry


def counter_totals(registry, names):
    """{(family, label_items) -> value} for the given counter families."""
    totals = {}
    for name in names:
        family = registry.get(name)
        if family is None:
            continue
        for labels, metric in family.samples():
            totals[(name, tuple(sorted(labels.items())))] = metric.value
    return totals


class TestBackendTotalsMatch:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_counters_and_decisions_match_serial(
        self, enrolled, bundle, backend
    ):
        _, attempt = enrolled
        requests = make_requests(attempt, 3)
        serial_responses, serial_registry = run_batch(
            bundle, "serial", requests
        )
        other_responses, other_registry = run_batch(
            bundle, backend, requests
        )

        # Decisions are bitwise identical across backends.
        assert all(r.status == STATUS_OK for r in serial_responses)
        for ours, theirs in zip(serial_responses, other_responses):
            assert ours.request_id == theirs.request_id
            assert ours.status == theirs.status
            assert ours.result.label == theirs.result.label
            assert np.array_equal(
                np.asarray(ours.result.scores),
                np.asarray(theirs.result.scores),
            )

        # Counter totals merged into the parent registry match exactly.
        serial_totals = counter_totals(serial_registry, COMPARED_COUNTERS)
        other_totals = counter_totals(other_registry, COMPARED_COUNTERS)
        assert serial_totals, "serial run recorded no counters"
        assert serial_totals == other_totals
        assert (
            serial_totals[
                (
                    "echoimage_serve_requests_total",
                    (("outcome", "ok"), ("tenant", "default")),
                )
            ]
            == 3.0
        )

        # Deterministic pipeline histograms agree sample-for-sample
        # (sums up to float addition order across worker partials).
        for name in COMPARED_HISTOGRAMS:
            serial_family = serial_registry.get(name)
            other_family = other_registry.get(name)
            assert serial_family is not None and other_family is not None
            serial_samples = {
                tuple(sorted(labels.items())): metric
                for labels, metric in serial_family.samples()
            }
            other_samples = {
                tuple(sorted(labels.items())): metric
                for labels, metric in other_family.samples()
            }
            assert serial_samples.keys() == other_samples.keys()
            for labels, metric in serial_samples.items():
                twin = other_samples[labels]
                assert metric.count == twin.count, name
                assert metric.bucket_counts() == twin.bucket_counts(), name
                assert metric.sum == pytest.approx(twin.sum), name

    def test_piggyback_fields_are_stripped_before_callers(
        self, enrolled, bundle
    ):
        _, attempt = enrolled
        responses, _ = run_batch(
            bundle, "process", make_requests(attempt, 2)
        )
        for response in responses:
            assert response.telemetry is None

    def test_worker_traces_replay_through_parent_sinks(
        self, enrolled, bundle
    ):
        _, attempt = enrolled
        requests = make_requests(attempt, 2)
        with Profiler() as profiler:
            config = ServingConfig(backend="process", max_workers=2)
            with BatchAuthenticator(bundle, config) as server:
                run_guarded(lambda: server.authenticate_batch(requests))
        authenticate_spans = [
            span
            for trace_ in profiler.traces
            for span in trace_.iter_spans()
            if span.name == "authenticate"
        ]
        # One worker-side authenticate trace per request, visible in the
        # parent exactly as the serial backend's would be.
        assert len(authenticate_spans) == len(requests)


class TestFlightRecording:
    def test_successful_batch_lands_in_recorder(self, enrolled, bundle):
        _, attempt = enrolled
        recorder = FlightRecorder()
        previous = set_flight_recorder(recorder)
        try:
            with BatchAuthenticator(
                bundle, ServingConfig(backend="serial")
            ) as server:
                run_guarded(
                    lambda: server.authenticate_batch(
                        make_requests(attempt, 2)
                    )
                )
        finally:
            set_flight_recorder(previous)
        records = recorder.requests()
        assert [r["request_id"] for r in records] == ["req-0", "req-1"]
        assert all(r["status"] == STATUS_OK for r in records)
        assert all(r["trace"] is not None for r in records)
        assert all(r["latency_s"] > 0 for r in records)

    def test_forced_timeout_writes_black_box_with_trace(
        self, enrolled, bundle, tmp_path
    ):
        from .test_executor import _HangOnMarker

        _, attempt = enrolled
        release = threading.Event()

        def hanging_factory(bundle_arg, config):
            real = bundle_arg.build_pipeline(config)
            return _HangOnMarker(real, release)

        dump_path = tmp_path / "blackbox.json"
        recorder = FlightRecorder(auto_dump_path=str(dump_path))
        requests = [
            AuthenticationRequest("good", tuple(attempt)),
            AuthenticationRequest("hang", (attempt[0],)),
        ]
        config = ServingConfig(
            backend="thread",
            max_workers=2,
            timeout_s=2.0,
            degrade_on_error=False,
        )
        previous = set_flight_recorder(recorder)
        try:
            with BatchAuthenticator(
                bundle, config, pipeline_factory=hanging_factory
            ) as server:
                responses = run_guarded(
                    lambda: server.authenticate_batch(requests)
                )
        finally:
            release.set()
            set_flight_recorder(previous)

        by_id = {r.request_id: r for r in responses}
        assert by_id["hang"].status == STATUS_TIMEOUT

        assert dump_path.exists(), "timeout must auto-dump the black box"
        doc = json.loads(dump_path.read_text())
        assert doc["kind"] == "flight_recorder"
        records = {r["request_id"]: r for r in doc["requests"]}
        assert records["hang"]["status"] == STATUS_TIMEOUT
        # The offending request carries the batch's span tree — the work
        # was abandoned in the worker, so the enclosing trace is the
        # evidence trail.
        assert records["hang"]["trace"] is not None
        assert records["hang"]["trace"]["spans"]
        kinds = [e["kind"] for e in doc["events"]]
        assert "timeout" in kinds
        assert kinds[-1] == "dump"
        (timeout_event,) = [
            e for e in doc["events"] if e["kind"] == "timeout"
        ]
        assert timeout_event["request_id"] == "hang"

    def test_degradation_records_event(self, enrolled, bundle):
        _, attempt = enrolled

        class _AlwaysCrash:
            def authenticate(self, recordings, exit_policy=None):
                raise RuntimeError("full fidelity down")

        def factory(bundle_arg, config):
            if config is None:
                return _AlwaysCrash()
            return bundle_arg.build_pipeline(config)

        recorder = FlightRecorder()
        previous = set_flight_recorder(recorder)
        config = ServingConfig(backend="serial", degrade_on_error=True)
        try:
            with BatchAuthenticator(
                bundle, config, pipeline_factory=factory
            ) as server:
                run_guarded(
                    lambda: server.authenticate_batch(
                        make_requests(attempt, 1)
                    )
                )
        finally:
            set_flight_recorder(previous)
        (record,) = recorder.requests()
        assert record["status"] == "degraded"
        assert record["degradation"] == "half_beeps"
        events = [e for e in recorder.events() if e["kind"] == "degradation"]
        assert events and events[0]["step"] == "half_beeps"

    def test_close_flips_alive(self, bundle):
        server = BatchAuthenticator(bundle, ServingConfig(backend="serial"))
        assert server.alive
        server.close()
        assert not server.alive


# ----------------------------------------------------------------------
# Sink format pin: what one decision leaves behind in every sink.
# ----------------------------------------------------------------------


class _RecordingSentinel(SecuritySentinel):
    """A real sentinel that also keeps the keyword arguments it was fed."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def observe_auth(self, **kwargs):
        self.calls.append(("observe_auth", kwargs))
        return super().observe_auth(**kwargs)

    def observe_admission(self, **kwargs):
        self.calls.append(("observe_admission", kwargs))
        return super().observe_admission(**kwargs)


def _pin_ok(bundle, attempt):
    request = AuthenticationRequest("pin-ok", tuple(attempt), tenant="t-pin")
    with BatchAuthenticator(bundle, ServingConfig(backend="serial")) as server:
        (response,) = run_guarded(lambda: server.authenticate_batch([request]))
    return response


def _pin_degraded(bundle, attempt):
    class _FullFidelityDown:
        def authenticate(self, recordings, exit_policy=None):
            raise RuntimeError("full fidelity down")

    def factory(bundle_arg, config):
        if config is None:
            return _FullFidelityDown()
        return bundle_arg.build_pipeline(config)

    request = AuthenticationRequest(
        "pin-degraded", tuple(attempt), tenant="t-pin"
    )
    config = ServingConfig(backend="serial", degrade_on_error=True)
    with BatchAuthenticator(
        bundle, config, pipeline_factory=factory
    ) as server:
        (response,) = run_guarded(lambda: server.authenticate_batch([request]))
    return response


def _pin_early_exit(bundle, attempt):
    from repro.config import BrokerConfig, ExitPolicy
    from repro.serve import RequestBroker

    from .test_executor import GUARD_S

    request = AuthenticationRequest("pin-early", tuple(attempt), tenant="t-pin")
    with BatchAuthenticator(bundle, ServingConfig(backend="serial")) as server:
        with RequestBroker(
            server,
            BrokerConfig(capacity=4, dispatch_batch=1),
            exit_policy=ExitPolicy(min_beeps=1, score_threshold=1e-9),
        ) as broker:
            response = broker.authenticate(request, timeout=GUARD_S)
    return response


def _pin_timeout(bundle, attempt):
    from .test_executor import _HangOnMarker

    release = threading.Event()

    def factory(bundle_arg, config):
        return _HangOnMarker(bundle_arg.build_pipeline(config), release)

    request = AuthenticationRequest("pin-timeout", (attempt[0],), tenant="t-pin")
    config = ServingConfig(
        backend="thread", max_workers=1, timeout_s=1.0, degrade_on_error=False
    )
    try:
        with BatchAuthenticator(
            bundle, config, pipeline_factory=factory
        ) as server:
            (response,) = run_guarded(
                lambda: server.authenticate_batch([request])
            )
    finally:
        release.set()
    return response


def _pin_error(bundle, attempt):
    from .test_executor import _CrashOnMarker

    request = AuthenticationRequest("pin-error", (attempt[0],), tenant="t-pin")
    config = ServingConfig(backend="serial", degrade_on_error=False)
    with BatchAuthenticator(
        bundle,
        config,
        pipeline_factory=lambda b, c: _CrashOnMarker(b.build_pipeline(c)),
    ) as server:
        (response,) = run_guarded(lambda: server.authenticate_batch([request]))
    return response


def _pin_shed(bundle, attempt):
    from repro.config import BrokerConfig
    from repro.serve import RequestBroker

    from .test_broker import DUMMY_BEEPS, ScriptedAuthenticator, plug_dispatcher

    gate = threading.Event()
    broker = RequestBroker(
        ScriptedAuthenticator(gate), BrokerConfig(capacity=1, dispatch_batch=1)
    )
    try:
        plug_dispatcher(broker, gate)
        broker.submit(AuthenticationRequest("pin-fill", DUMMY_BEEPS))
        response = broker.submit(
            AuthenticationRequest("pin-shed", DUMMY_BEEPS, tenant="t-pin")
        ).result()
    finally:
        gate.set()
        run_guarded(broker.close)
    return response


#: scenario -> (serve function, backend, audit keys beyond the envelope, flight
#: event kinds of the request, admitted through the broker).
PINNED_SCENARIOS = {
    "ok": (
        _pin_ok, "serial",
        {"status", "decision", "backend", "environment", "user",
         "svdd_scores", "svm_margins", "distance_m", "beeps_used",
         "latency_s"},
        [], False,
    ),
    "degraded": (
        _pin_degraded, "serial",
        {"status", "decision", "backend", "environment", "user",
         "svdd_scores", "svm_margins", "distance_m", "degradation",
         "beeps_used", "latency_s"},
        ["degradation"], False,
    ),
    "early_exit": (
        _pin_early_exit, "serial",
        {"status", "decision", "backend", "environment", "user",
         "svdd_scores", "svm_margins", "distance_m", "beeps_used",
         "early_exit", "latency_s"},
        ["early_exit"], True,
    ),
    "timeout": (
        _pin_timeout, "thread",
        {"status", "decision", "backend", "environment", "error"},
        ["timeout"], False,
    ),
    "error": (
        _pin_error, "serial",
        {"status", "decision", "backend", "environment", "latency_s",
         "error"},
        ["worker_error"], False,
    ),
    "shed": (_pin_shed, None, None, ["shed"], True),
}

#: scenario -> the response status it must produce.
PINNED_STATUS = {
    "ok": "ok",
    "degraded": "degraded",
    "early_exit": "ok",
    "timeout": "timeout",
    "error": "error",
    "shed": "shed",
}

#: Flight event kind -> its exact key set.
PINNED_EVENT_KEYS = {
    "degradation": {"kind", "request_id", "step"},
    "early_exit": {"kind", "request_id", "beeps_used"},
    "timeout": {"kind", "request_id", "error", "backend"},
    "worker_error": {"kind", "request_id", "error", "backend"},
    "shed": {"kind", "request_id", "reason", "tenant"},
}


@pytest.mark.parametrize("scenario", sorted(PINNED_SCENARIOS))
def test_decision_reaches_every_sink_in_pinned_format(
    scenario, enrolled, bundle, tmp_path
):
    """Each outcome's audit entry, flight record and events, sentinel
    feed and capture annotations, field by field."""
    from repro.obs import (
        AuditLedger,
        CaptureStore,
        environment_fingerprint,
        set_audit_ledger,
        set_capture_store,
        set_flight_recorder,
        set_security_sentinel,
    )

    serve, backend, audit_keys, event_kinds, brokered = (
        PINNED_SCENARIOS[scenario]
    )
    _, attempt = enrolled
    ledger = AuditLedger(tmp_path / "audit.jsonl")
    recorder = FlightRecorder()
    sentinel = _RecordingSentinel()
    store = CaptureStore()
    previous = (
        set_registry(MetricsRegistry()),
        set_flight_recorder(recorder),
        set_audit_ledger(ledger),
        set_security_sentinel(sentinel),
        set_capture_store(store),
    )
    try:
        response = serve(bundle, attempt)
    finally:
        set_registry(previous[0])
        set_flight_recorder(previous[1])
        set_audit_ledger(previous[2])
        set_security_sentinel(previous[3])
        set_capture_store(previous[4])
    rid = response.request_id
    result = response.result
    assert response.status == PINNED_STATUS[scenario]
    assert bool(response.early_exit) == (scenario == "early_exit")

    # -- audit ledger ---------------------------------------------------
    entries = [e for e in ledger.entries() if e["request_id"] == rid]
    if audit_keys is None:
        assert entries == []
    else:
        (entry,) = entries
        assert set(entry) == audit_keys | {
            "schema", "seq", "ts", "kind", "request_id", "prev_hash"
        }
        assert set(entry["environment"]) == set(environment_fingerprint())
        expected = {
            "schema": 1,
            "kind": "serve",
            "request_id": rid,
            "status": response.status,
            "backend": backend,
            "decision": (
                response.status if result is None
                else "accept" if result.accepted else "reject"
            ),
            "user": None if result is None else str(result.label),
            "svdd_scores": None if result is None else [
                float(s) for s in result.scores
            ],
            "svm_margins": None if result is None else [
                float(m) if np.isfinite(m) else None for m in result.margins
            ],
            "distance_m": None if result is None else float(
                result.distance.user_distance_m
            ),
            "degradation": response.degradation,
            "beeps_used": response.beeps_used,
            "early_exit": True,
            "latency_s": response.latency_s,
            "error": response.error,
        }
        for key in audit_keys - {"environment"}:
            assert entry[key] == expected[key], key
        assert ledger.verify_chain().ok

    # -- flight recorder -----------------------------------------------
    records = [r for r in recorder.requests() if r["request_id"] == rid]
    if scenario == "shed":
        assert records == []
    else:
        (record,) = records
        assert set(record) == {
            "request_id", "status", "latency_s", "degradation", "error",
            "trace", "seq", "recorded_at",
        }
        assert record["status"] == response.status
        assert record["latency_s"] == response.latency_s
        assert record["degradation"] == response.degradation
        assert record["error"] == response.error
        assert record["trace"] is not None and record["trace"]["spans"]
    drift = [] if result is None else ["drift_alert"] * len(
        result.drift_alerts
    )
    events = [e for e in recorder.events() if e.get("request_id") == rid]
    assert [e["kind"] for e in events] == event_kinds + drift
    for event in events[: len(event_kinds)]:
        assert set(event) == PINNED_EVENT_KEYS[event["kind"]] | {
            "seq", "recorded_at"
        }
        details = {
            "step": response.degradation,
            "beeps_used": response.beeps_used,
            "error": response.error,
            "backend": backend,
            "reason": response.shed_reason,
            "tenant": "t-pin",
        }
        for key in PINNED_EVENT_KEYS[event["kind"]] - {"kind", "request_id"}:
            assert event[key] == details[key], (event["kind"], key)

    # -- security sentinel ---------------------------------------------
    calls = [c for c in sentinel.calls if c[1].get("request_id") == rid]
    expected_calls = []
    if brokered:
        admission = {"tenant": "t-pin", "request_id": rid}
        if scenario == "shed":
            admission = {
                "tenant": "t-pin", "shed_reason": "capacity",
                "request_id": rid,
            }
        expected_calls.append(("observe_admission", admission))
    if result is not None:
        finite = [float(s) for s in result.scores if np.isfinite(s)]
        expected_calls.append((
            "observe_auth",
            {
                "accepted": bool(result.accepted),
                "tenant": "t-pin",
                "user": str(result.label) if result.accepted else None,
                "score": max(finite) if finite else None,
                "request_id": rid,
            },
        ))
    assert calls == expected_calls

    # -- capture store -------------------------------------------------
    capture = store.get(rid)
    if result is None:
        assert capture is None
    else:
        assert capture is not None
        assert capture.bundle_hash == bundle.content_hash()
        assert capture.degradation == response.degradation
        assert capture.tenant == "t-pin"
        assert capture.backend == backend
        assert capture.via == ("broker" if brokered else None)
        assert capture.annotations == {}
