"""Domain metrics recorded by the EchoImage pipeline.

One module owns the metric catalogue so every stage emits consistent
names and the full table can be documented (and asserted against) in one
place — see the "Metrics & drift monitoring" section of
``docs/ARCHITECTURE.md``.  Stages call :func:`pipeline_metrics` and
record into the returned handle bundle; when metrics are globally
disabled (:func:`repro.obs.set_metrics_enabled`) the accessor returns
``None`` and the stage skips recording, which is how the
metrics-overhead benchmark isolates the cost of collection.

The catalogue (all names prefixed ``echoimage_``):

========================================  =========  ==================  =====================================
name                                      type       labels              observes
========================================  =========  ==================  =====================================
``echoimage_auth_attempts_total``         counter    ``result``          authenticate() outcomes (accept/reject)
``echoimage_auth_decisions_total``        counter    ``decision``        per-beep decisions incl. spoof_reject
``echoimage_auth_score``                  histogram  ``mode``            SVDD decision scores (Section V-E)
``echoimage_auth_margin``                 histogram  —                   SVM inter-class vote margin
``echoimage_distance_estimates_total``    counter    ``outcome``         ranging attempts (ok / no_echo)
``echoimage_distance_echo_snr_db``        histogram  —                   body-echo SNR over envelope floor (Eq. 10)
``echoimage_distance_echo_prominence``    gauge      —                   body-echo peak / strongest-peak ratio
``echoimage_distance_user_m``             gauge      —                   last estimated user distance D_p
``echoimage_image_dynamic_range_db``      histogram  —                   acoustic-image max/median pixel range (Eqs. 11-12)
``echoimage_image_band_energy``           gauge      ``band``            per-sub-band summed pixel energy
``echoimage_feature_embedding_norm``      histogram  —                   mean L2 norm of extracted embeddings
``echoimage_drift_alerts_total``          counter    ``monitor``, ``kind``  edge-triggered drift alerts raised per monitor
``echoimage_identify_requests_total``     counter    ``outcome``         store identifications (identified/rejected/empty)
``echoimage_identify_candidates``         histogram  —                   prefilter candidate-set sizes (k after clipping)
``echoimage_identify_latency_seconds``    histogram  —                   two-stage identify wall time (prefilter + shard)
``echoimage_identify_shard_refits_total`` counter    ``reason``          per-shard refits triggered by enroll/revoke
``echoimage_serve_requests_total``        counter    ``outcome``, ``tenant``  batch-serving requests (ok/degraded/error/timeout)
``echoimage_serve_degradations_total``    counter    ``step``            degradation-ladder fallbacks taken
``echoimage_serve_request_latency_seconds``  histogram  —                per-request wall time inside the worker pool
``echoimage_flight_dropped_total``        counter    ``ring``            flight-recorder ring evictions (requests/events)
``echoimage_broker_queue_depth``          gauge      —                   requests waiting in the broker's bounded queue
``echoimage_broker_shed_total``           counter    ``reason``, ``tenant``  admissions refused (capacity / slo_burn)
``echoimage_stream_exits_total``          counter    ``stage``           streaming decisions by exit point (early/full)
``echoimage_stream_beeps_used``           histogram  —                   beeps consumed per streaming decision
``echoimage_security_alerts_total``       counter    ``rule``, ``severity``  security-sentinel alerts fired per rule
========================================  =========  ==================  =====================================

The ``tenant`` label is bounded-cardinality: the first
:data:`TENANT_LABEL_CAP` distinct tenants a registry sees keep their
verbatim names and everything beyond hashes stably into
``bucket-<k>`` via :meth:`PipelineMetrics.tenant_label`, so an
adversary minting tenant ids cannot blow up the Prometheus series
count.

The SLO tracker of :mod:`repro.obs.slo` additionally publishes
``echoimage_slo_*`` gauges (compliance, error-budget remaining, burn
rate) into the same registry; they are derived from the families above
rather than recorded by pipeline stages, so they live outside this
handle bundle.
"""

from __future__ import annotations

import hashlib
import threading

from repro.obs.metrics import (
    MetricFamily,
    MetricsRegistry,
    get_registry,
    metrics_enabled,
)

#: Distinct tenants that keep their verbatim name on the ``tenant``
#: metric label; later arrivals hash into ``bucket-<k>``.
TENANT_LABEL_CAP = 12

#: Hash buckets overflow tenants collapse into.
TENANT_HASH_BUCKETS = 8

#: Buckets for SVDD decision scores: symmetric around the accept
#: boundary at 0 (scores are ``R^2 (1+margin) - d^2``, typically |s| < 1).
SCORE_BUCKETS = (
    -1.0, -0.5, -0.2, -0.1, -0.05, -0.02, 0.0,
    0.02, 0.05, 0.1, 0.2, 0.5, 1.0,
)

#: Buckets for the SVM vote margin, normalised to [0, 1].
MARGIN_BUCKETS = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0)

#: Buckets for echo SNR in dB over the envelope floor.
SNR_DB_BUCKETS = (3.0, 6.0, 10.0, 15.0, 20.0, 30.0, 40.0, 60.0)

#: Buckets for acoustic-image dynamic range in dB.
DYNAMIC_RANGE_DB_BUCKETS = (3.0, 6.0, 10.0, 15.0, 20.0, 30.0, 40.0, 60.0)

#: Buckets for embedding L2 norms.
NORM_BUCKETS = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0)

#: Buckets for per-request serving latency, in seconds.
SERVE_LATENCY_BUCKETS = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Buckets for prefilter candidate-set sizes (powers of two up to the
#: largest k anyone should reasonably configure).
CANDIDATE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Buckets for the two-stage identify wall time: sub-millisecond through
#: tens of milliseconds — far finer than serving latency because the
#: identification path must stay near-flat as the population grows.
IDENTIFY_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0,
)

#: Buckets for beeps consumed per streaming decision (attempts are a
#: handful of beeps; the paper uses up to 8).
STREAM_BEEP_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)


class PipelineMetrics:
    """The bound metric-family handles of one registry.

    Attributes mirror the catalogue in the module docstring; construction
    registers every family (idempotently), so a freshly swapped-in
    registry exposes the full catalogue after the first pipeline call.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.auth_attempts: MetricFamily = registry.counter(
            "echoimage_auth_attempts_total",
            "Authentication attempts by outcome",
            labels=("result",),
        )
        self.auth_decisions: MetricFamily = registry.counter(
            "echoimage_auth_decisions_total",
            "Per-beep authentication decisions",
            labels=("decision",),
        )
        self.auth_score: MetricFamily = registry.histogram(
            "echoimage_auth_score",
            "SVDD decision scores (positive = inside the user description)",
            labels=("mode",),
            buckets=SCORE_BUCKETS,
        )
        self.auth_margin: MetricFamily = registry.histogram(
            "echoimage_auth_margin",
            "Normalised inter-class vote margin of the n-class SVM",
            buckets=MARGIN_BUCKETS,
        )
        self.distance_estimates: MetricFamily = registry.counter(
            "echoimage_distance_estimates_total",
            "Distance-estimation attempts by outcome",
            labels=("outcome",),
        )
        self.distance_snr_db: MetricFamily = registry.histogram(
            "echoimage_distance_echo_snr_db",
            "Body-echo SNR over the averaged-envelope floor, in dB",
            buckets=SNR_DB_BUCKETS,
        )
        self.distance_prominence: MetricFamily = registry.gauge(
            "echoimage_distance_echo_prominence",
            "Body-echo peak value over the strongest envelope peak",
        )
        self.distance_user_m: MetricFamily = registry.gauge(
            "echoimage_distance_user_m",
            "Last estimated horizontal user-array distance D_p, in metres",
        )
        self.image_dynamic_range_db: MetricFamily = registry.histogram(
            "echoimage_image_dynamic_range_db",
            "Acoustic-image dynamic range (max over median pixel), in dB",
            buckets=DYNAMIC_RANGE_DB_BUCKETS,
        )
        self.image_band_energy: MetricFamily = registry.gauge(
            "echoimage_image_band_energy",
            "Summed per-grid pixel energy of the last imaged sub-band",
            labels=("band",),
        )
        self.feature_norm: MetricFamily = registry.histogram(
            "echoimage_feature_embedding_norm",
            "Mean L2 norm of the extracted feature embeddings",
            buckets=NORM_BUCKETS,
        )
        self.drift_alerts: MetricFamily = registry.counter(
            "echoimage_drift_alerts_total",
            "Edge-triggered drift alerts raised, by monitor and kind",
            labels=("monitor", "kind"),
        )
        self.identify_requests: MetricFamily = registry.counter(
            "echoimage_identify_requests_total",
            "Sharded-store identifications by outcome",
            labels=("outcome",),
        )
        self.identify_candidates: MetricFamily = registry.histogram(
            "echoimage_identify_candidates",
            "Prefilter candidate-set sizes per identification",
            buckets=CANDIDATE_BUCKETS,
        )
        self.identify_latency: MetricFamily = registry.histogram(
            "echoimage_identify_latency_seconds",
            "Two-stage (prefilter + shard) identification wall time",
            buckets=IDENTIFY_LATENCY_BUCKETS,
        )
        self.identify_shard_refits: MetricFamily = registry.counter(
            "echoimage_identify_shard_refits_total",
            "Per-shard classifier refits, by triggering operation",
            labels=("reason",),
        )
        self.serve_requests: MetricFamily = registry.counter(
            "echoimage_serve_requests_total",
            "Batch-serving requests by outcome and tenant",
            labels=("outcome", "tenant"),
        )
        self.serve_degradations: MetricFamily = registry.counter(
            "echoimage_serve_degradations_total",
            "Degradation-ladder fallbacks taken while serving",
            labels=("step",),
        )
        self.serve_request_latency: MetricFamily = registry.histogram(
            "echoimage_serve_request_latency_seconds",
            "Per-request wall time inside the serving worker pool",
            buckets=SERVE_LATENCY_BUCKETS,
        )
        self.flight_dropped: MetricFamily = registry.counter(
            "echoimage_flight_dropped_total",
            "Flight-recorder ring-buffer evictions, by ring",
            labels=("ring",),
        )
        self.broker_queue_depth: MetricFamily = registry.gauge(
            "echoimage_broker_queue_depth",
            "Requests currently waiting in the broker's bounded queue",
        )
        self.broker_shed: MetricFamily = registry.counter(
            "echoimage_broker_shed_total",
            "Requests refused at broker admission, by reason and tenant",
            labels=("reason", "tenant"),
        )
        self.stream_exits: MetricFamily = registry.counter(
            "echoimage_stream_exits_total",
            "Streaming decisions by exit point (early vs full attempt)",
            labels=("stage",),
        )
        self.stream_beeps_used: MetricFamily = registry.histogram(
            "echoimage_stream_beeps_used",
            "Beeps consumed per streaming decision",
            buckets=STREAM_BEEP_BUCKETS,
        )
        self.security_alerts: MetricFamily = registry.counter(
            "echoimage_security_alerts_total",
            "Security-sentinel alerts fired, by rule and severity",
            labels=("rule", "severity"),
        )
        self._tenant_lock = threading.Lock()
        self._tenant_seen: set[str] = set()

    def record_decision(self, record) -> None:
        """Count one published
        :class:`~repro.obs.decision.DecisionRecord`: serving records
        (sheds included) feed ``serve_*``/``broker_shed``/``stream_*``,
        ``identify`` records ``identify_*``."""
        rid, latency = record.request_id, record.latency_s
        if record.kind == "identify":
            outcome = (
                "empty" if not record.candidates
                else "identified" if record.accepted else "rejected"
            )
            self.identify_requests.labels(outcome=outcome).inc()
            self.identify_candidates.observe(float(len(record.candidates)))
            self.identify_latency.labels().observe(
                latency, exemplar={"request_id": rid, "value": latency}
            )
            return
        if record.kind != "serve":
            return
        tenant = self.tenant_label(record.tenant)
        self.serve_requests.labels(outcome=record.status, tenant=tenant).inc()
        if record.shed_reason is not None:
            self.broker_shed.labels(
                reason=record.shed_reason, tenant=tenant
            ).inc()
        if record.degradation is not None:
            self.serve_degradations.labels(step=record.degradation).inc()
        if latency is not None:
            self.serve_request_latency.labels().observe(
                latency, exemplar={"request_id": rid, "value": latency}
            )
        if record.streaming and record.beeps_used is not None:
            self.stream_exits.labels(
                stage="early" if record.early_exit else "full"
            ).inc()
            self.stream_beeps_used.observe(float(record.beeps_used))

    def tenant_label(self, tenant: str) -> str:
        """The bounded-cardinality ``tenant`` label value for a tenant.

        The first :data:`TENANT_LABEL_CAP` distinct tenants this
        registry's handles see keep their verbatim names; every later
        tenant hashes stably (SHA-1) into one of
        :data:`TENANT_HASH_BUCKETS` ``bucket-<k>`` values, bounding the
        label's cardinality at ``cap + buckets`` no matter how many
        tenant ids traffic invents.
        """
        tenant = str(tenant)
        with self._tenant_lock:
            if tenant in self._tenant_seen:
                return tenant
            if len(self._tenant_seen) < TENANT_LABEL_CAP:
                self._tenant_seen.add(tenant)
                return tenant
        digest = hashlib.sha1(tenant.encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:4], "big") % TENANT_HASH_BUCKETS
        return f"bucket-{bucket}"


_BOUND: dict[int, tuple[MetricsRegistry, PipelineMetrics]] = {}


def pipeline_metrics() -> PipelineMetrics | None:
    """The pipeline metric handles for the current default registry.

    Returns ``None`` when metric recording is globally disabled, so call
    sites read ``m = pipeline_metrics(); if m is not None: ...`` and pay
    a single function call on the disabled path.
    """
    if not metrics_enabled():
        return None
    registry = get_registry()
    key = id(registry)
    bound = _BOUND.get(key)
    if bound is None or bound[0] is not registry:
        bound = (registry, PipelineMetrics(registry))
        _BOUND.clear()  # one registry is live at a time; drop stale refs
        _BOUND[key] = bound
    return bound[1]
