"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``: in a traced run it replaces each
layer's public entry point with a wrapper that records a span (layer,
start, end, enclosing span, request id) and restores the original
afterwards.  Each name is patched where its caller looks it up — a
method on its class, or a module attribute for functions imported by
name (``repro.io.store.save_pickle``) or imported lazily from
``repro.io.storage`` at call time.

Spans nest per thread, so a span's *self time* is its duration minus
the durations of other layers' spans opened inside it on the same
thread.  Spans
of one request share the id :func:`repro.obs.current_request_id`
returns inside the request's correlation scope; parent-side sink calls
that run outside that scope take the id from their arguments instead.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


@dataclass(eq=False)
class Span:
    """One call into a layer's entry point."""

    layer: str
    parent: "Span | None"
    request_id: str | None
    phase: str
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def outermost(self) -> bool:
        """Whether no enclosing span belongs to the same layer."""
        return self.parent is None or self.parent.layer != self.layer


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory.

    ``phase`` tags every span opened while it is set, so one traced run
    can separate set-up work (enrollment fits) from the timed phase.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, name: str, layer: str, info=None, request_of=None):
        """Replace ``owner.name`` by a span-recording wrapper.

        Args:
            owner: Class or module holding the entry point.
            name: Attribute name of the entry point.
            layer: Layer the spans are attributed to.
            info: Optional ``(args, kwargs, result) -> dict`` annotating
                the span after a successful call.
            request_of: Optional ``(args, kwargs) -> id`` used when the
                call runs outside a correlation scope.
        """
        from repro.obs import current_request_id

        raw = vars(owner)[name]
        original = getattr(owner, name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            request_id = current_request_id()
            if request_id is None and request_of is not None:
                request_id = request_of(args, kwargs)
            span = Span(
                layer, stack[-1] if stack else None, request_id, tracer.phase
            )
            stack.append(span)
            span.start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        setattr(owner, name, traced)
        self._patches.append((owner, name, raw))

    def uninstall(self) -> None:
        """Restore every patched entry point (reverse install order)."""
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)

    def __enter__(self) -> "Tracer":
        install_layer_probes(self)
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def install_layer_probes(tracer: Tracer) -> None:
    """Wrap the public entry point of every timed layer."""
    import repro.io.storage as storage
    import repro.io.store as store_module
    from repro.core.authenticator import DecisionStream, MultiUserAuthenticator
    from repro.core.distance import DistanceEstimator
    from repro.core.features import FeatureExtractor
    from repro.core.imaging import AcousticImager
    from repro.core.pipeline import EchoImagePipeline
    from repro.io.store import EnrollmentStore
    from repro.ml.multiclass import OneVsOneSVC
    from repro.ml.prefilter import CentroidPrefilter
    from repro.ml.svdd import SVDD
    from repro.obs import AuditLedger, CaptureStore, FlightRecorder
    from repro.obs import SecuritySentinel
    from repro.serve import BatchAuthenticator, RequestBroker

    def beeps(args, kwargs, result):
        return {"beeps": len(args[1])}

    def images(args, kwargs, result):
        return {"images": len(args[1])}

    def submitted(args, kwargs):
        return args[1].request_id

    def served(args, kwargs, result):
        return {
            "request_ids": [request.request_id for request in args[1]],
            "latency_s": {
                response.request_id: response.latency_s for response in result
            },
        }

    wrap = tracer.wrap
    wrap(DistanceEstimator, "estimate", "distance")
    wrap(AcousticImager, "images", "imaging", info=beeps)
    wrap(AcousticImager, "image_batch", "imaging", info=beeps)
    wrap(FeatureExtractor, "extract", "features", info=images)
    wrap(MultiUserAuthenticator, "decide_detailed", "auth")
    wrap(DecisionStream, "push", "auth")
    wrap(EchoImagePipeline, "authenticate", "pipeline")
    wrap(EchoImagePipeline, "authenticate_streaming", "pipeline")
    wrap(EchoImagePipeline, "enroll_users", "write")
    wrap(RequestBroker, "submit", "broker", request_of=submitted)
    wrap(BatchAuthenticator, "authenticate_streaming", "executor", info=served)
    wrap(AuditLedger, "append", "obs.audit",
         request_of=lambda args, kwargs: args[2])
    wrap(SecuritySentinel, "observe_auth", "obs.sentinel",
         request_of=lambda args, kwargs: kwargs.get("request_id"))
    wrap(FlightRecorder, "record_request", "obs.flight",
         request_of=lambda args, kwargs: args[1])
    wrap(CaptureStore, "record", "obs.capture",
         request_of=lambda args, kwargs: args[1].request_id)
    wrap(EnrollmentStore, "identify", "identify")
    wrap(EnrollmentStore, "enroll", "write")
    wrap(EnrollmentStore, "enroll_batch", "write")
    wrap(EnrollmentStore, "revoke", "write")
    wrap(CentroidPrefilter, "candidates", "prefilter")
    wrap(OneVsOneSVC, "fit", "svm.fit")
    wrap(SVDD, "fit", "svdd.fit")
    # repro.io.store imports save_pickle by name; the audit ledger and
    # capture store import their writers from repro.io.storage lazily,
    # so both lookup sites are patched.
    wrap(store_module, "save_pickle", "storage")
    for writer in (
        "save_pickle",
        "write_bytes_atomic",
        "append_jsonl_line",
        "write_json_atomic",
        "save_model_bundle",
    ):
        wrap(storage, writer, "storage")


#: Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    "features.busy_ms": ("ms", "lower"),
    "features.images": ("count", "lower"),
    "features.share": ("ratio", "lower"),
    "distance.busy_ms": ("ms", "lower"),
    "distance.share": ("ratio", "lower"),
    "imaging.busy_ms": ("ms", "lower"),
    "imaging.beeps": ("count", "lower"),
    "imaging.share": ("ratio", "lower"),
    "auth.busy_ms": ("ms", "lower"),
    "pipeline.self_ms": ("ms", "lower"),
    "broker.queue_wait_p50_ms": ("ms", "lower"),
    "broker.queue_wait_p95_ms": ("ms", "lower"),
    "broker.batch_size": ("count", "higher"),
    "broker.shed": ("count", "lower"),
    "executor.self_ms": ("ms", "lower"),
    "obs.audit_ms": ("ms", "lower"),
    "obs.sentinel_ms": ("ms", "lower"),
    "obs.flight_ms": ("ms", "lower"),
    "obs.capture_ms": ("ms", "lower"),
    "serve.early_exit_rate": ("ratio", "higher"),
    "serve.beeps_used_mean": ("count", "lower"),
    "prefilter.busy_ms": ("ms", "lower"),
    "store.shards_visited": ("count", "lower"),
    "svm.fit_ms": ("ms", "lower"),
    "svdd.fit_ms": ("ms", "lower"),
    "svm.fits": ("count", "lower"),
    "storage.write_ms": ("ms", "lower"),
    "storage.writes": ("count", "lower"),
    "loadgen.lag_p95_ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "frr": ("ratio", "lower"),
    "far": ("ratio", "lower"),
    "failure_rate": ("ratio", "lower"),
}


def percentile_ms(values, q: float) -> float:
    """The ``q``-th percentile of seconds ``values``, in ms (0 if empty)."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q) * 1e3)


def layer_metrics(
    tracer: Tracer, num_ops: int, request_time_s: float
) -> dict[str, float]:
    """Span-derived per-layer metrics of the traced run.

    Args:
        tracer: The tracer after the traced set-up and timed phase.
        num_ops: Operations issued in the timed phase.
        request_time_s: Summed end-to-end latency of those operations —
            the denominator of every ``*.share``.

    Busy times are p50 per outermost call of the timed phase.  The
    write-path metrics (``svm.*``, ``svdd.*``, ``storage.write_ms``)
    pool the traced set-up with the timed phase, because enrollment
    fits happen in set-up on the acoustic workloads.
    """
    # Self time subtracts only other layers' spans: a layer entry point
    # that calls another entry point of the same layer (image_batch
    # falling back to images) stays one busy interval.
    child_time: dict[int, float] = {}
    for span in tracer.spans:
        if span.parent is not None and span.parent.layer != span.layer:
            key = id(span.parent)
            child_time[key] = child_time.get(key, 0.0) + span.duration

    def self_time(span: Span) -> float:
        return span.duration - child_time.get(id(span), 0.0)

    every: dict[str, list[Span]] = {}
    timed: dict[str, list[Span]] = {}
    for span in tracer.spans:
        if not span.outermost:
            continue
        every.setdefault(span.layer, []).append(span)
        if span.phase == "timed":
            timed.setdefault(span.layer, []).append(span)

    def busy_ms(layer: str, spans=None) -> float:
        chosen = timed.get(layer, []) if spans is None else spans
        return percentile_ms([self_time(s) for s in chosen], 50)

    def share(layer: str) -> float:
        total = sum(s.duration for s in timed.get(layer, []))
        return total / request_time_s if request_time_s > 0 else 0.0

    def per_op(layer: str, key: str | None = None) -> float:
        spans = timed.get(layer, [])
        count = (
            len(spans) if key is None
            else sum(s.info.get(key, 0) for s in spans)
        )
        return count / num_ops if num_ops else 0.0

    pipeline_by_request = {
        s.request_id: s.duration for s in timed.get("pipeline", [])
    }
    queue_waits, batch_sizes, executor_self = [], [], []
    submitted_at = {
        s.request_id: s.end for s in timed.get("broker", [])
    }
    for span in timed.get("executor", []):
        ids = span.info.get("request_ids", [])
        batch_sizes.append(len(ids))
        for request_id in ids:
            if request_id in submitted_at:
                queue_waits.append(span.start - submitted_at[request_id])
        for request_id, latency in span.info.get("latency_s", {}).items():
            if latency is not None and request_id in pipeline_by_request:
                executor_self.append(
                    latency - pipeline_by_request[request_id]
                )

    identify_spans = timed.get("identify", [])
    shard_visits = sum(
        1 for s in timed.get("auth", [])
        if s.parent is not None and s.parent.layer == "identify"
    )
    writes = len(every.get("write", []))
    return {
        "features.busy_ms": busy_ms("features"),
        "features.images": per_op("features", "images"),
        "features.share": share("features"),
        "distance.busy_ms": busy_ms("distance"),
        "distance.share": share("distance"),
        "imaging.busy_ms": busy_ms("imaging"),
        "imaging.beeps": per_op("imaging", "beeps"),
        "imaging.share": share("imaging"),
        "auth.busy_ms": busy_ms("auth"),
        "pipeline.self_ms": busy_ms("pipeline"),
        "broker.queue_wait_p50_ms": percentile_ms(queue_waits, 50),
        "broker.queue_wait_p95_ms": percentile_ms(queue_waits, 95),
        "broker.batch_size": (
            float(np.mean(batch_sizes)) if batch_sizes else 0.0
        ),
        "executor.self_ms": percentile_ms(executor_self, 50),
        "obs.audit_ms": busy_ms("obs.audit"),
        "obs.sentinel_ms": busy_ms("obs.sentinel"),
        "obs.flight_ms": busy_ms("obs.flight"),
        "obs.capture_ms": busy_ms("obs.capture"),
        "prefilter.busy_ms": busy_ms("prefilter"),
        "store.shards_visited": (
            shard_visits / len(identify_spans) if identify_spans else 0.0
        ),
        "svm.fit_ms": busy_ms("svm.fit", every.get("svm.fit", [])),
        "svdd.fit_ms": busy_ms("svdd.fit", every.get("svdd.fit", [])),
        "svm.fits": len(every.get("svm.fit", [])) / writes if writes else 0.0,
        "storage.write_ms": busy_ms("storage", every.get("storage", [])),
        "storage.writes": per_op("storage"),
    }
