"""One decision record, one fan-out: routing and order of ``publish``.

The exact per-sink formats of served decisions are pinned in
``tests/serve/test_telemetry_propagation.py``; this module pins what
:func:`repro.obs.decision.publish` itself decides — which sink hears
about which record, in which order — against recording stand-ins.
"""

from __future__ import annotations

import pytest

from repro.obs import DecisionRecord, MetricsRegistry, publish
from repro.obs.observers import OBSERVERS


class _Sinks:
    """Recording stand-ins for the capture, audit, sentinel and flight
    slots, all appending to one call log."""

    def __init__(self):
        self.calls = []
        self.dumps = []

    # capture store
    def ensure_bundle(self, bundle):
        return "hash-of-" + bundle

    def annotate(self, request_id, **fields):
        self.calls.append(("capture", request_id, fields))

    # audit ledger
    def append(self, kind, request_id, **fields):
        self.calls.append(("audit", request_id, kind))

    # security sentinel
    def observe_auth(self, **kwargs):
        self.calls.append(("sentinel.auth", kwargs["request_id"], kwargs))

    def observe_admission(self, **kwargs):
        self.calls.append(("sentinel.admission", kwargs["request_id"], kwargs))

    def observe_identify(self, **kwargs):
        self.calls.append(("sentinel.identify", kwargs["request_id"], kwargs))

    # flight recorder
    def record_request(self, request_id, status, **fields):
        self.calls.append(("flight.request", request_id, status))

    def record_event(self, kind, **details):
        self.calls.append(("flight.event", details["request_id"], kind))

    def auto_dump(self, reason, **details):
        self.dumps.append(details)


@pytest.fixture
def sinks():
    stand_in = _Sinks()
    previous = {
        slot: OBSERVERS.swap(slot, stand_in)
        for slot in ("capture", "ledger", "sentinel", "recorder")
    }
    previous["registry"] = OBSERVERS.swap("registry", MetricsRegistry())
    try:
        yield stand_in
    finally:
        for slot, sink in previous.items():
            OBSERVERS.swap(slot, sink)


def _decided(request_id, **fields):
    return DecisionRecord(
        request_id, "serve", decision="accept", user="alice",
        scores=(0.25, float("nan")), backend="thread", **fields,
    )


def test_each_sink_sees_the_batch_in_the_fixed_order(sinks):
    publish([_decided("a"), _decided("b")], bundle="bundle")
    assert [(sink, rid) for sink, rid, _ in sinks.calls] == [
        ("capture", "a"), ("capture", "b"),
        ("audit", "a"), ("audit", "b"),
        ("sentinel.auth", "a"), ("sentinel.auth", "b"),
        ("flight.request", "a"), ("flight.request", "b"),
    ]
    assert sinks.calls[0][2]["bundle_hash"] == "hash-of-bundle"
    # The probing signal is the best finite score; NaN beeps are skipped.
    assert sinks.calls[4][2]["score"] == 0.25
    assert sinks.calls[4][2]["user"] == "alice"
    rendered = OBSERVERS.registry.render_prometheus()
    assert 'echoimage_serve_requests_total{outcome="ok",tenant="default"} 2' in (
        rendered
    )
    assert sinks.dumps == []


def test_failed_batch_dumps_once_and_undecided_records_skip_sentinel(sinks):
    failed = [
        DecisionRecord(rid, "serve", status=status, decision=status,
                       backend="thread", error="boom")
        for rid, status in (("t", "timeout"), ("e", "error"))
    ]
    publish([_decided("ok"), *failed])
    assert [
        (sink, rid) for sink, rid, _ in sinks.calls
        if sink.startswith("sentinel")
    ] == [("sentinel.auth", "ok")]
    events = [(rid, kind) for sink, rid, kind in sinks.calls
              if sink == "flight.event"]
    assert events == [("t", "timeout"), ("e", "worker_error")]
    assert sinks.dumps == [{"request_ids": ["t", "e"], "backend": "thread"}]


def test_shed_reaches_metrics_admission_and_event_only(sinks):
    publish([DecisionRecord("s", "serve", status="shed", decision="shed",
                            tenant="acme", shed_reason="capacity")])
    assert [(sink, rid) for sink, rid, _ in sinks.calls] == [
        ("sentinel.admission", "s"), ("flight.event", "s"),
    ]
    assert sinks.calls[0][2] == {
        "tenant": "acme", "shed_reason": "capacity", "request_id": "s",
    }
    rendered = OBSERVERS.registry.render_prometheus()
    assert (
        'echoimage_broker_shed_total{reason="capacity",tenant="acme"} 1'
        in rendered
    )


def test_identify_skips_capture_and_flight(sinks):
    publish([DecisionRecord("i", "identify", decision="accept", user="bob",
                            scores=(0.5,), candidates=("bob",), shard=3,
                            num_users=4, latency_s=0.001)])
    assert [(sink, rid) for sink, rid, _ in sinks.calls] == [
        ("audit", "i"), ("sentinel.identify", "i"),
    ]
    assert sinks.calls[1][2] == {
        "shard": 3, "gate_scores": (0.5,), "user": "bob", "request_id": "i",
    }
    rendered = OBSERVERS.registry.render_prometheus()
    assert 'echoimage_identify_requests_total{outcome="identified"} 1' in (
        rendered
    )


def test_observer_slots_are_fixed():
    previous = OBSERVERS.swap("sentinel", None)
    assert OBSERVERS.swap("sentinel", previous) is None
    with pytest.raises(AttributeError):
        OBSERVERS.swap("sixth_sink", object())
