"""One record per decision, published to every sink in one pass.

Whoever decides — the serving executor, the broker's admission control,
``EnrollmentStore.identify`` or a direct pipeline call — describes the
decision once as a frozen :class:`DecisionRecord` and hands it to
:func:`publish`, which feeds the sinks installed in
:data:`repro.obs.observers.OBSERVERS` in a fixed order: metrics →
capture → audit → sentinel → flight.  Each sink's format lives next to
the sink; this module only routes.  A shed never ran, so it gets no
ledger entry, capture annotation or flight request record; an identify
lookup records its own capture and stays out of the flight recorder.

Example:
    >>> from repro.obs.decision import DecisionRecord
    >>> DecisionRecord("req-7", "serve", status="timeout",
    ...                decision="timeout").decided
    False
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.audit import audit_fields
from repro.obs.flight import FAILED_STATUSES, flight_events
from repro.obs.observers import OBSERVERS
from repro.obs.sentinel import best_score

#: The two decisions an attempt can end in.
ACCEPT = "accept"
REJECT = "reject"


@dataclass(frozen=True, eq=False)
class DecisionRecord:
    """Everything the sinks are told about one decision.

    ``kind`` is ``"serve"`` (serving layer, sheds included),
    ``"authenticate"`` (direct pipeline call) or ``"identify"``, and is
    also the audit entry kind.  ``decision`` is ``accept``/``reject``, or
    the status when nothing was decided.  ``scores`` are the per-beep
    SVDD scores (the deciding shard's gate scores for ``identify``);
    ``trace`` is the attempt's span tree, or the enclosing batch trace
    for a timeout or error.  ``streaming`` marks a batch served under an
    exit policy, ``via`` the admission path stamped on the capture;
    ``candidates``/``shard``/``num_users`` describe an identify lookup.
    """

    request_id: str
    kind: str
    status: str = "ok"
    decision: str = REJECT
    tenant: str = "default"
    backend: str | None = None
    user: str | None = None
    scores: tuple = ()
    margins: tuple = ()
    distance_m: float | None = None
    beeps_used: int | None = None
    early_exit: bool = False
    streaming: bool = False
    degradation: str | None = None
    shed_reason: str | None = None
    latency_s: float | None = None
    error: str | None = None
    drift_alerts: tuple = ()
    trace: object = None
    via: str | None = None
    candidates: tuple = ()
    shard: int | None = None
    num_users: int | None = None

    @property
    def decided(self) -> bool:
        return self.decision in (ACCEPT, REJECT)

    @property
    def accepted(self) -> bool:
        return self.decision == ACCEPT

    @classmethod
    def of_result(
        cls, request_id: str, kind: str, result, **fields
    ) -> "DecisionRecord":
        """The record of one attempt's
        :class:`~repro.core.pipeline.AuthenticationResult` (``None``
        when it produced no decision); ``fields`` override the rest."""
        if result is None:
            values = {"decision": fields.get("status", "ok")}
        else:
            values = {
                "decision": ACCEPT if result.accepted else REJECT,
                "user": str(result.label),
                "scores": tuple(float(s) for s in result.scores),
                "margins": tuple(float(m) for m in result.margins),
                "distance_m": float(result.distance.user_distance_m),
                "beeps_used": int(result.beeps_used),
                "early_exit": bool(result.early_exit),
                "drift_alerts": tuple(result.drift_alerts),
                "trace": result.trace or None,
            }
        return cls(request_id, kind, **{**values, **fields})


def publish(records, bundle=None) -> None:
    """Feed ``records`` to every installed sink, in the fixed order.

    ``bundle`` is the serving :class:`~repro.serve.ModelBundle`: with a
    capture store installed it is stashed content-addressed and its
    hash annotated on each capture, so the capture directory replays
    on its own.
    """
    # Imported lazily: repro.core.telemetry pulls in repro.core, which
    # imports repro.obs back while this package is still initialising.
    from repro.core.telemetry import pipeline_metrics

    records = tuple(records)
    metrics = pipeline_metrics()
    store, ledger = OBSERVERS.capture, OBSERVERS.ledger
    sentinel, recorder = OBSERVERS.sentinel, OBSERVERS.recorder
    executed = [r for r in records if r.shed_reason is None]
    if metrics is not None:
        for record in records:
            metrics.record_decision(record)
    if store is not None:
        bundle_hash = None if bundle is None else store.ensure_bundle(bundle)
        for record in executed:
            if record.kind != "identify":
                store.annotate(
                    record.request_id,
                    bundle_hash=bundle_hash,
                    degradation=record.degradation,
                    tenant=record.tenant,
                    backend=record.backend,
                    via=record.via,
                )
    if ledger is not None:
        for record in executed:
            ledger.append(
                record.kind, record.request_id, **audit_fields(record)
            )
    if sentinel is not None:
        for record in records:
            user = record.user if record.accepted else None
            if record.shed_reason is not None:
                sentinel.observe_admission(
                    tenant=record.tenant,
                    shed_reason=record.shed_reason,
                    request_id=record.request_id,
                )
            elif record.kind == "identify" and record.shard is not None:
                sentinel.observe_identify(
                    shard=record.shard,
                    gate_scores=record.scores,
                    user=user,
                    request_id=record.request_id,
                )
            elif record.kind != "identify" and record.decided:
                sentinel.observe_auth(
                    accepted=record.accepted,
                    tenant=record.tenant,
                    user=user,
                    score=best_score(record.scores),
                    request_id=record.request_id,
                )
    if recorder is not None:
        for record in records:
            if record.kind == "identify":
                continue
            if record.shed_reason is None:
                recorder.record_request(
                    record.request_id,
                    record.status,
                    latency_s=record.latency_s,
                    degradation=record.degradation,
                    error=record.error,
                    trace=record.trace,
                )
            for kind, details in flight_events(record):
                recorder.record_event(kind, **details)
        failed = [r for r in records if r.status in FAILED_STATUSES]
        if failed:
            recorder.auto_dump(
                "batch contained failed requests",
                request_ids=[record.request_id for record in failed],
                backend=failed[0].backend,
            )
