"""Batched, parallel execution of authentication requests.

:class:`BatchAuthenticator` fans a batch of
:class:`~repro.serve.requests.AuthenticationRequest` objects across a
worker pool and returns one response per request, in input order.  Three
backends share the same worker logic:

``serial``
    In-line execution on the calling thread — the debugging baseline and
    the reference the golden harness compares against.
``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  Workers share
    the model bundle zero-copy (fitted SVDD/SVM, steering caches), so
    results are bit-identical to the serial path.  NumPy releases the
    GIL inside the imaging GEMMs, which is where attempts spend most of
    their time.
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor`; the (picklable)
    bundle is shipped once per worker via the pool initializer.

Each worker authenticates at full fidelity first and, on failure, walks
the :mod:`~repro.serve.degradation` ladder before giving up.  The parent
wraps every batch in a ``serve.batch`` trace span.

**Cross-worker telemetry propagation.**  Serial and thread workers
record pipeline metrics and traces straight into the parent's global
registry/sinks.  Process workers cannot — their increments land in the
worker interpreter and would be silently lost — so ``_process_run``
collects each request's telemetry into a fresh per-request registry and
ships the delta, the serialised traces and any captures back in one
:class:`~repro.serve.requests.WorkerTelemetry` envelope on the
response; the parent merges the delta into its registry, replays the
traces through the sink API and records the captures, making all three
backends report identical totals.

**Decision records.**  Once the batch span closes, the parent turns
each response into one :class:`~repro.obs.decision.DecisionRecord` and
publishes the batch to every installed sink — so all three backends
write exactly one ledger entry per request, from one process.
"""

from __future__ import annotations

import threading
from collections import Counter
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    TimeoutError as FuturesTimeoutError,
)
from dataclasses import replace
from time import monotonic, perf_counter
from typing import Callable

from repro.config import EchoImageConfig, ExitPolicy, ServingConfig
from repro.core.pipeline import EchoImagePipeline
from repro.obs import (
    CaptureStore,
    MetricsRegistry,
    PipelineTrace,
    add_sink,
    correlation_scope,
    emit_trace,
    ensure_trace,
    get_capture_store,
    get_registry,
    metrics_enabled,
    remove_sink,
    set_capture_store,
    set_registry,
    trace,
)
from repro.obs.decision import DecisionRecord, publish
from repro.serve.bundle import ModelBundle
from repro.serve.degradation import DegradationPolicy, DegradationStep
from repro.serve.requests import (
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    AuthenticationRequest,
    AuthenticationResponse,
    WorkerTelemetry,
)

#: Signature of the pipeline-construction seam: ``(bundle, config) ->
#: pipeline``.  Tests inject crashing/hanging pipelines through it;
#: production leaves it at :meth:`ModelBundle.build_pipeline`.
PipelineFactory = Callable[
    [ModelBundle, EchoImageConfig | None], EchoImagePipeline
]


class _WorkerRuntime:
    """Per-worker pipelines plus the degradation walk.

    One runtime belongs to exactly one worker (thread or process): the
    imager's scratch buffers make pipelines thread-unsafe, so runtimes
    are never shared.  Pipelines are built lazily per degradation step
    and reused across requests, keeping enrollment state shared (through
    the bundle) and steering caches warm.
    """

    def __init__(
        self,
        bundle: ModelBundle,
        policy: DegradationPolicy,
        degrade_on_error: bool,
        factory: PipelineFactory,
    ) -> None:
        self.bundle = bundle
        self.policy = policy
        self.degrade_on_error = degrade_on_error
        self.factory = factory
        self._pipelines: dict[str | None, EchoImagePipeline] = {}

    def _pipeline(self, step: DegradationStep | None) -> EchoImagePipeline:
        key = None if step is None else step.name
        pipeline = self._pipelines.get(key)
        if pipeline is None:
            config = None if step is None else step.scale_config(
                self.bundle.config
            )
            pipeline = self.factory(self.bundle, config)
            self._pipelines[key] = pipeline
        return pipeline

    def run(
        self,
        request: AuthenticationRequest,
        exit_policy: ExitPolicy | None = None,
    ) -> AuthenticationResponse:
        """Serve one request, degrading on failure.

        The whole walk runs inside the request's correlation scope, so
        every span, drift alert and metric exemplar recorded underneath
        carries ``request.request_id`` — on the process backend the id
        travels with the pickled request, which is what keeps serial,
        thread and process runs identically correlated.

        The full-fidelity attempt runs under ``exit_policy``;
        degradation-ladder retries always run without one, so a response
        can carry ``early_exit`` or ``degradation`` but never both.
        """
        with correlation_scope(request.request_id):
            return self._run_correlated(request, exit_policy)

    def _run_correlated(
        self,
        request: AuthenticationRequest,
        exit_policy: ExitPolicy | None = None,
    ) -> AuthenticationResponse:
        start = perf_counter()
        try:
            result = self._pipeline(None).authenticate(
                list(request.recordings), exit_policy
            )
            return AuthenticationResponse(
                request_id=request.request_id,
                status=STATUS_OK,
                result=result,
                latency_s=perf_counter() - start,
                beeps_used=result.beeps_used,
                early_exit=result.early_exit,
            )
        except Exception as exc:  # noqa: BLE001 — isolate request failures
            last_error = exc
        if self.degrade_on_error:
            for step in self.policy.steps:
                try:
                    result = self._pipeline(step).authenticate(
                        step.select_recordings(request.recordings)
                    )
                    return AuthenticationResponse(
                        request_id=request.request_id,
                        status=STATUS_DEGRADED,
                        result=result,
                        degradation=step.name,
                        latency_s=perf_counter() - start,
                        beeps_used=result.beeps_used,
                        early_exit=False,
                    )
                except Exception as exc:  # noqa: BLE001
                    last_error = exc
        return AuthenticationResponse(
            request_id=request.request_id,
            status=STATUS_ERROR,
            error=repr(last_error),
            latency_s=perf_counter() - start,
        )


# ----------------------------------------------------------------------
# Process-backend plumbing: the runtime lives in a module global of the
# worker interpreter, installed once by the pool initializer.
# ----------------------------------------------------------------------

_PROCESS_RUNTIME: _WorkerRuntime | None = None


def _init_process_worker(
    bundle: ModelBundle,
    policy: DegradationPolicy,
    degrade_on_error: bool,
) -> None:
    global _PROCESS_RUNTIME
    _PROCESS_RUNTIME = _WorkerRuntime(
        bundle, policy, degrade_on_error, ModelBundle.build_pipeline
    )


def _process_run(
    request: AuthenticationRequest,
    exit_policy: ExitPolicy | None = None,
    capture: bool = False,
) -> AuthenticationResponse:
    """Serve one request in a worker interpreter, capturing telemetry.

    The request runs against a fresh, empty metrics registry and a
    trace-collecting sink, so the registry snapshot afterwards *is* the
    request's metric delta.  When the parent has a capture store
    installed it asks for ``capture``: the request then also runs
    against a fresh in-memory :class:`~repro.obs.CaptureStore`.  All of
    it rides back to the parent in one :class:`WorkerTelemetry` envelope
    (see ``BatchAuthenticator._finalize_response``).
    """
    assert _PROCESS_RUNTIME is not None, "pool initializer did not run"
    fresh = MetricsRegistry()
    captured: list[PipelineTrace] = []
    previous = set_registry(fresh)
    memory_store = CaptureStore(max_captures=4) if capture else None
    previous_store = (
        set_capture_store(memory_store) if capture else None
    )
    add_sink(captured.append)
    try:
        response = _PROCESS_RUNTIME.run(request, exit_policy)
    finally:
        remove_sink(captured.append)
        if capture:
            set_capture_store(previous_store)
        set_registry(previous)
    telemetry = WorkerTelemetry(
        metrics=fresh.snapshot(),
        traces=tuple(t.to_dict() for t in captured if t),
        captures=tuple(memory_store.drain()) if capture else (),
    )
    return replace(response, telemetry=telemetry)


class BatchAuthenticator:
    """Serve batches of authentication requests through a worker pool.

    Args:
        bundle: Frozen enrollment snapshot every worker serves from.
        config: Serving parameters (backend, worker count, batch
            timeout, …); defaults to :class:`~repro.config.ServingConfig`.
        policy: Degradation ladder walked on per-request failure.
        pipeline_factory: Seam for tests to inject faulty pipelines;
            ignored by the ``process`` backend (worker interpreters
            always build real pipelines from the bundle).

    Example::

        bundle = ModelBundle.from_pipeline(enrolled_pipeline)
        with BatchAuthenticator(bundle) as server:
            responses = server.authenticate_batch(requests)
        accepted = [r for r in responses if r.ok and r.result.accepted]

    The pool is created lazily on the first batch and torn down by
    :meth:`close` (or the ``with`` block).  One instance must only be
    driven from one thread at a time.
    """

    def __init__(
        self,
        bundle: ModelBundle,
        config: ServingConfig | None = None,
        policy: DegradationPolicy | None = None,
        pipeline_factory: PipelineFactory | None = None,
    ) -> None:
        self.bundle = bundle
        self.config = config or ServingConfig()
        self.policy = policy or DegradationPolicy()
        self._factory = pipeline_factory or ModelBundle.build_pipeline
        self._closed = False
        if (
            pipeline_factory is not None
            and self.config.backend == "process"
        ):
            raise ValueError(
                "pipeline_factory injection is not supported by the "
                "process backend (workers rebuild from the bundle)"
            )
        self._pool: Executor | None = None
        # Thread backend: one runtime per worker thread (pipelines are
        # not thread-safe — the imager reuses scratch buffers).
        self._local = threading.local()
        self._serial_runtime: _WorkerRuntime | None = None

    # -- worker-side entry points --------------------------------------

    def _make_runtime(self) -> _WorkerRuntime:
        return _WorkerRuntime(
            self.bundle,
            self.policy,
            self.config.degrade_on_error,
            self._factory,
        )

    def _thread_run(
        self,
        request: AuthenticationRequest,
        exit_policy: ExitPolicy | None = None,
    ) -> AuthenticationResponse:
        runtime = getattr(self._local, "runtime", None)
        if runtime is None:
            runtime = self._make_runtime()
            self._local.runtime = runtime
        return runtime.run(request, exit_policy)

    # -- pool lifecycle ------------------------------------------------

    def _ensure_pool(self) -> Executor | None:
        if self.config.backend == "serial" or self._pool is not None:
            return self._pool
        workers = self.config.resolve_workers()
        if self.config.backend == "thread":
            self._pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-serve"
            )
        else:
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_process_worker,
                initargs=(
                    self.bundle,
                    self.policy,
                    self.config.degrade_on_error,
                ),
            )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        Pending work is cancelled; already-running requests are
        abandoned to finish on their own.
        """
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    @property
    def alive(self) -> bool:
        """Whether the authenticator can still serve (never closed).

        This is the serving half of a ``/readyz`` probe: readiness is
        typically ``bundle loaded and server.alive``, and flips false
        the moment :meth:`close` runs.
        """
        return not self._closed

    def __enter__(self) -> "BatchAuthenticator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- serving -------------------------------------------------------

    def authenticate_batch(
        self,
        requests: list[AuthenticationRequest],
        *,
        via: str | None = None,
    ) -> list[AuthenticationResponse]:
        """Serve a batch; one response per request, in input order.

        The whole batch shares one ``config.timeout_s`` budget: requests
        still unfinished when it expires come back with status
        ``"timeout"``.  A worker failure never raises here — it becomes
        a structured ``"error"`` response for that request only.
        ``via`` names the admission path stamped on the requests'
        captures (the broker passes ``"broker"``).
        """
        return self._serve(list(requests), None, "serve.batch", via)

    def authenticate_streaming(
        self,
        requests: list[AuthenticationRequest],
        exit_policy: ExitPolicy | None = None,
        *,
        via: str | None = None,
    ) -> list[AuthenticationResponse]:
        """Serve a batch through the streaming early-exit path.

        Identical contract to :meth:`authenticate_batch` plus the
        early-exit knob: each request's beeps are imaged and scored
        incrementally and the attempt stops once the running aggregate
        clears ``exit_policy``.  With the policy disabled (the default
        :class:`~repro.config.ExitPolicy`) every decision, score and
        margin is bit-identical to :meth:`authenticate_batch`.
        Degradation-ladder retries always run the batch pipeline, so no
        response carries both ``early_exit`` and ``degradation``.
        """
        policy = exit_policy or ExitPolicy()
        return self._serve(list(requests), policy, "serve.stream", via)

    def _serve(
        self,
        requests: list[AuthenticationRequest],
        exit_policy: ExitPolicy | None,
        span_name: str,
        via: str | None,
    ) -> list[AuthenticationResponse]:
        with ensure_trace() as batch_trace, trace(
            span_name,
            backend=self.config.backend,
            num_requests=len(requests),
        ) as span:
            if not requests:
                responses: list[AuthenticationResponse] = []
            elif self.config.backend == "serial":
                responses = self._serve_serial(requests, exit_policy)
            else:
                responses = self._serve_pooled(requests, exit_policy)
            outcomes = Counter(response.status for response in responses)
            span.update(**{f"num_{k}": v for k, v in outcomes.items()})
        # Published after the span closes, so failed requests carry the
        # finished batch trace.
        publish(
            [
                self._decision_record(
                    request, response, batch_trace,
                    exit_policy is not None, via,
                )
                for request, response in zip(requests, responses)
            ],
            bundle=self.bundle,
        )
        return responses

    def _serve_serial(
        self,
        requests: list[AuthenticationRequest],
        exit_policy: ExitPolicy | None = None,
    ) -> list[AuthenticationResponse]:
        if self._serial_runtime is None:
            self._serial_runtime = self._make_runtime()
        deadline = monotonic() + self.config.timeout_s
        responses = []
        for request in requests:
            if monotonic() >= deadline:
                responses.append(self._timeout_response(request))
            else:
                responses.append(
                    self._serial_runtime.run(request, exit_policy)
                )
        return responses

    def _serve_pooled(
        self,
        requests: list[AuthenticationRequest],
        exit_policy: ExitPolicy | None = None,
    ) -> list[AuthenticationResponse]:
        pool = self._ensure_pool()
        assert pool is not None
        if self.config.backend == "thread":
            submit = lambda request: pool.submit(
                self._thread_run, request, exit_policy
            )
        else:
            want_capture = get_capture_store() is not None
            submit = lambda request: pool.submit(
                _process_run, request, exit_policy, want_capture
            )
        deadline = monotonic() + self.config.timeout_s
        futures: list[tuple[AuthenticationRequest, Future]] = [
            (request, submit(request)) for request in requests
        ]
        responses = []
        for request, future in futures:
            try:
                responses.append(
                    self._finalize_response(
                        future.result(
                            timeout=max(0.0, deadline - monotonic())
                        )
                    )
                )
            except FuturesTimeoutError:
                future.cancel()
                responses.append(self._timeout_response(request))
            except Exception as exc:  # noqa: BLE001 — e.g. BrokenProcessPool
                responses.append(
                    AuthenticationResponse(
                        request_id=request.request_id,
                        status=STATUS_ERROR,
                        error=repr(exc),
                    )
                )
        return responses

    def _finalize_response(
        self, response: AuthenticationResponse
    ) -> AuthenticationResponse:
        """Apply (and strip) a process worker's telemetry envelope.

        The worker's metric delta is merged into the parent's global
        registry — counters and histograms add, gauges are last-write —
        its traces are replayed through the parent's sink API and its
        captures recorded into the parent's store, so the ``process``
        backend reports the same totals as ``serial`` and ``thread``.
        Thread/serial responses carry no envelope and pass through
        untouched.
        """
        telemetry = response.telemetry
        if telemetry is None:
            return response
        if metrics_enabled():
            get_registry().merge(telemetry.metrics)
        for trace_document in telemetry.traces:
            emit_trace(PipelineTrace.from_dict(trace_document))
        store = get_capture_store()
        if store is not None:
            for capture in telemetry.captures:
                store.record(capture)
        return replace(response, telemetry=None)

    def _timeout_response(
        self, request: AuthenticationRequest
    ) -> AuthenticationResponse:
        return AuthenticationResponse(
            request_id=request.request_id,
            status=STATUS_TIMEOUT,
            error=(
                f"request did not finish inside the batch budget of "
                f"{self.config.timeout_s}s"
            ),
        )

    def _decision_record(
        self,
        request: AuthenticationRequest,
        response: AuthenticationResponse,
        batch_trace: PipelineTrace,
        streaming: bool,
        via: str | None,
    ) -> DecisionRecord:
        """The decision record of one served response; timed-out and
        errored requests have no worker trace, so they carry the batch's."""
        record = DecisionRecord.of_result(
            response.request_id,
            "serve",
            response.result,
            status=response.status,
            tenant=request.tenant,
            backend=self.config.backend,
            degradation=response.degradation,
            latency_s=response.latency_s,
            error=response.error,
            streaming=streaming,
            via=via,
        )
        if response.result is None:
            record = replace(record, trace=batch_trace or None)
        return record
